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
from typing import Callable, Optional

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
    halve_toward,
    linfrac,
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
    x0 = Rat(ensure_unit(x0, "principal point"))
    s = next((s for s in T.summands if s.lo <= x0 < s.hi), None)
    return pwfn(*lower_profile(s, x0, x0, ONE))


def principal_upper(T: OrdinalSumTNorm, x0: Rat) -> PwFn:
    """The principal upper set y -> d_L(x0, y), built exactly."""
    x0 = Rat(ensure_unit(x0, "principal point"))
    if x0 == ZERO:
        return PwFn.constant(ONE)
    s = next((s for s in T.summands if s.lo < x0 <= s.hi), None)
    pts: list[Breakpoint] = []
    pcs: list[LinFrac] = []
    if s is None:
        pts.append(Breakpoint(ZERO, ZERO, ZERO, ZERO))
        pcs.append(affine_piece(ONE, ZERO))
        pts.append(Breakpoint(x0, x0, ONE, ONE))
    else:
        lo = s.lo
        piece = upper_piece(s, x0)
        if lo > 0:
            pts.append(Breakpoint(ZERO, ZERO, ZERO, ZERO))
            pcs.append(affine_piece(ONE, ZERO))
            pts.append(Breakpoint(lo, lo, piece(lo), piece(lo)))
        else:
            v0 = piece(ZERO)
            pts.append(Breakpoint(ZERO, v0, v0, v0))
        pcs.append(piece)
        pts.append(Breakpoint(x0, piece(x0), ONE, ONE))
    if x0 < ONE:
        pcs.append(const_piece(ONE))
        pts.append(Breakpoint(ONE, ONE, ONE, ONE))
    return pwfn(pts, pcs)


# ---------------------------------------------------------------------------
# tensor products


def _require_unit_domain(f: PwFn, what: str) -> None:
    if f.lo != ZERO or f.hi != ONE:
        raise DomainError(f"{what} must live on the full interval [0,1]")


def _min_gap_sup(fp: LinFrac, gp: LinFrac, u: Rat, v: Rat) -> SupResult:
    """Sup of min(f, g) over the open gap (u, v), interior attainment flagged.

    Between crossings min(f, g) is one piece, monotone or constant, so the
    supremum sits at u, v or a crossing; a sub-gap's midpoint reaches it
    only when the piece there is constant.
    """
    cross = crossings(fp, gp, u, v)
    xs = [u] + cross + [v]
    best = max(min(fp(x), gp(x)) for x in xs)
    mids = [(p + q) / 2 for p, q in zip(xs, xs[1:])]
    attained = any(min(fp(x), gp(x)) == best for x in cross + mids)
    return SupResult(best, attained)


def _lin_mul(a0: Rat, a1: Rat, b0: Rat, b1: Rat) -> tuple[Rat, Rat, Rat]:
    """Ascending coefficients of (a0 + a1*x) * (b0 + b1*x)."""
    return a0 * b0, a0 * b1 + a1 * b0, a1 * b1


def _conj_gap_sup(
    T: OrdinalSumTNorm, fp: LinFrac, gp: LinFrac, u: Rat, v: Rat
) -> SupResult:
    """Sup of conj(f(x), g(x)) over (u, v); the branch is constant there."""
    mid = (u + v) / 2
    fm, gm = fp(mid), gp(mid)
    s = next(
        (s for s in T.summands if s.lo <= fm <= s.hi and s.lo <= gm <= s.hi), None
    )
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
    """Branch and bound: conj <= min and each piece is monotone or constant on
    its gap, so min(max of phi's limits, max of psi's limits) bounds a gap.
    Gaps go in descending bound order until a bound is below the best value.
    With a target, the walk also stops once the best value reaches it, so a
    value below the target is the exact supremum.
    """
    _require_unit_domain(phi, "tensor operand")
    _require_unit_domain(psi, "tensor operand")
    phi2, psi2 = phi.refine(psi._xs), psi.refine(phi._xs)
    pos = phi2._xs
    best = ZERO
    attained = False

    def feed(val: Rat, reach: bool) -> None:
        nonlocal best, attained
        if val > best:
            best, attained = val, reach
        elif val == best:
            attained = attained or reach

    for bf, bg in zip(phi2.breakpoints, psi2.breakpoints):
        feed(T.conj(bf.at, bg.at), True)
    lf = [(a.right, b.left) for a, b in zip(phi2.breakpoints, phi2.breakpoints[1:])]
    lg = [(a.right, b.left) for a, b in zip(psi2.breakpoints, psi2.breakpoints[1:])]
    gaps = sorted(((min(max(lf[i]), max(lg[i])), i) for i in range(len(lf))), reverse=True)
    levels = T.idempotent_levels()
    for bound, i in gaps:
        if bound < best or (target is not None and best >= target):
            break
        fp, gp, u, v = phi2.pieces[i], psi2.pieces[i], pos[i], pos[i + 1]
        # a piece meets a level inside the gap iff the level lies strictly
        # between its limits; cutting there fixes the summand branch
        found: set[Rat] = set()
        for piece, (a, b) in ((fp, lf[i]), (gp, lg[i])):
            lo, hi = sorted((a, b))
            inside = levels[bisect.bisect_right(levels, lo) : bisect.bisect_left(levels, hi)]
            found.update(_solve_eq(piece, lv) for lv in inside)
        cuts = sorted(found)
        for x in cuts:
            feed(T.conj(fp(x), gp(x)), True)
        for p, q in zip([u, *cuts], [*cuts, v]):
            feed(*_conj_gap_sup(T, fp, gp, p, q))
    return SupResult(best, attained)


# ---------------------------------------------------------------------------
# characterization checkers: shared machinery


def hull_walk(T: OrdinalSumTNorm, f: PwFn) -> tuple[list[tuple], list[tuple]]:
    """One pass over f's pieces and T's summands, cut at every position where
    f against the idempotent hull can change: breakpoints, summand endpoints,
    and where f meets the identity on an idempotent gap or the constants
    s.lo and s.hi inside a summand s.  Returns one (c, f(c), c-, c+) per
    position and one (p, q, piece, summand or None) per gap between them.

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
            for root in roots:
                gaps.append((p, root[0], piece, s))
                points.append(root)
                p = root[0]
            gaps.append((p, q, piece, s))
            p, fp = q, piece(q)
    points.append((ONE, bps[-1].at, ONE, ONE))
    return points, gaps


def def_lower_witness(T: OrdinalSumTNorm, phi: PwFn, x: Rat, y: Rat) -> PairWitness:
    """The definitional inequality conj(phi(x), d_L(y,x)) <= phi(y) at (x, y)."""
    vx, vy = phi.eval(x), phi.eval(y)
    lhs = T.conj(vx, T.residuum(y, x))
    if lhs <= vy:  # pragma: no cover - guards witness-mapping bugs
        raise AssertionError("lower-set witness does not violate the definition")
    return PairWitness(x, y, vx, vy, lhs, vy, "<=")


def def_upper_witness(T: OrdinalSumTNorm, psi: PwFn, x: Rat, y: Rat) -> PairWitness:
    """The definitional inequality conj(d_L(x,y), psi(x)) <= psi(y) at (x, y)."""
    vx, vy = psi.eval(x), psi.eval(y)
    lhs = T.conj(T.residuum(x, y), vx)
    if lhs <= vy:  # pragma: no cover
        raise AssertionError("upper-set witness does not violate the definition")
    return PairWitness(x, y, vx, vy, lhs, vy, "<=")


def restricted_cap(f: PwFn, s: Summand) -> PwFn:
    """sigma = min(c+, f) on the frame of s, kept in frame coordinates."""
    return _with_level(f.restrict(s.lo, s.hi), s.hi, min)


# -- basic-case violations in frame coordinates -------------------------------
#
# On a frame [lo, hi] the summand is the basic quantale carried by the affine
# map x -> (x - lo)/(hi - lo).  Each basic law below is invariant under the
# common scale factor hi - lo of arguments and values, so the laws are read
# on the frame itself and only the offset lo enters.


def _pair_near(anchor: Rat, other: Rat, bad: Callable[[Rat, Rat], bool]) -> tuple[Rat, Rat]:
    """A sorted pair ((anchor + t)/2, t) satisfying ``bad``, t halving toward anchor."""

    def pair(t: Rat) -> tuple[Rat, Rat]:
        a, b = sorted(((anchor + t) / 2, t))
        return a, b

    return pair(halve_toward(anchor, other, lambda t: bad(*pair(t))))


def _jump_scan(
    f: PwFn, bad: Callable[[Rat, Rat], bool], at_left_end: bool
) -> Optional[tuple[Rat, Rat]]:
    """A real pair straddling the first jump of f that satisfies ``bad``;
    a jump at the left end of the domain counts only when ``at_left_end``."""
    bps = f.breakpoints
    for i, bp in enumerate(bps):
        x0 = bp.x
        if i == 0 and not at_left_end:
            continue
        if i > 0 and bp.left != bp.at:
            return halve_toward(x0, bps[i - 1].x, lambda t: bad(t, x0)), x0
        if i < len(bps) - 1 and bp.at != bp.right:
            return x0, halve_toward(x0, bps[i + 1].x, lambda t: bad(x0, t))
    return None


def _lukasiewicz_scan(sig: PwFn, sign: int) -> Optional[tuple[Rat, Rat]]:
    """A pair a < b with sign*(sig(b) - sig(a)) > b - a, if any: sig fails
    to be 1-Lipschitz downward (sign -1) or upward (sign 1)."""
    bad = lambda a, b: sign * (sig.eval(b) - sig.eval(a)) > b - a  # noqa: E731
    for i, piece in enumerate(sig.pieces):
        u, v = sig.breakpoints[i].x, sig.breakpoints[i + 1].x
        if piece.is_affine:
            if sign * piece.a > 1:
                return u + (v - u) / 4, v - (v - u) / 4
        else:
            for anchor, other in ((u, v), (v, u)):
                if sign * _mobius_deriv(piece, anchor) > 1:
                    return _pair_near(anchor, other, bad)
    return _jump_scan(sig, bad, at_left_end=True)


def basic_lower_violation(
    sig: PwFn, kind: SummandKind
) -> Optional[tuple[Rat, Rat]]:
    """A pair (x, y) violating the basic-case lower-set law on the frame
    [lo, hi] = [sig.lo, sig.hi], if any.

    For the Lukasiewicz quantale the law is: decreasing and 1-Lipschitz.
    For the product quantale: decreasing and (x - lo)*(f(x) - lo)
    non-decreasing, with jumps allowed at lo only.  The returned pair is
    oriented so that conj(f(x), d_L(y, x)) > f(y) in that basic quantale.
    """
    if kind is SummandKind.LUKASIEWICZ:
        return _lukasiewicz_scan(sig, -1)
    lo = sig.lo

    def drop(a: Rat, b: Rat) -> bool:
        return (a - lo) * (sig.eval(a) - lo) > (b - lo) * (sig.eval(b) - lo)

    for i, piece in enumerate(sig.pieces):
        u, v = sig.breakpoints[i].x, sig.breakpoints[i + 1].x
        for anchor, other in ((u, v), (v, u)):
            # sign of the derivative of (x - lo)*(piece(x) - lo), monotone on the gap
            if piece(anchor) - lo + (anchor - lo) * _mobius_deriv(piece, anchor) < 0:
                return _pair_near(anchor, other, drop)
    return _jump_scan(sig, drop, at_left_end=False)


def basic_upper_violation(
    sig: PwFn, kind: SummandKind
) -> Optional[tuple[Rat, Rat]]:
    """A pair (x, y) violating the basic-case upper-set law on the frame
    [lo, hi] = [sig.lo, sig.hi], oriented so that conj(d_L(x, y), f(x)) > f(y);
    increasingness and sig >= lo are assumed already checked.

    For the product quantale the law is: (f(x) - lo)/(x - lo) non-increasing
    on (lo, hi], with jumps allowed at lo only.
    """
    if kind is SummandKind.LUKASIEWICZ:
        pair = _lukasiewicz_scan(sig, 1)
    else:
        lo = sig.lo

        def grow(a: Rat, b: Rat) -> bool:
            return (a - lo) * (sig.eval(b) - lo) > (b - lo) * (sig.eval(a) - lo)

        for i, piece in enumerate(sig.pieces):
            rise = _ratio_rise(piece, lo, sig.breakpoints[i].x, sig.breakpoints[i + 1].x)
            if rise is not None:
                pair = _pair_near(*rise, grow)
                break
        else:
            pair = _jump_scan(sig, grow, at_left_end=False)
    return None if pair is None else (pair[1], pair[0])


def _mobius_deriv(piece: LinFrac, x: Rat) -> Rat:
    den = piece.c * x + piece.d
    return (piece.a * piece.d - piece.b * piece.c) / (den * den)


def _ratio_rise(piece: LinFrac, lo: Rat, u: Rat, v: Rat) -> Optional[tuple[Rat, Rat]]:
    """An anchor/other pair where ((piece(x) - lo)/(x - lo))' > 0 holds at
    the anchor, if any.  The piece must not go below lo on [u, v].

    The numerator of that derivative is a quadratic in t = x - lo.  Its
    vertex t = -b/a is the root of the shifted piece below, which is not
    constant then and changes sign there, so a vertex strictly inside the
    gap would put the piece below lo.  The quadratic is therefore monotone
    on the gap, and its two ends decide."""
    # the shifted piece t -> piece(t + lo) - lo = (a*t + b)/(c*t + d)
    c, d = piece.c, piece.c * lo + piece.d
    a, b = piece.a - lo * c, piece.a * lo + piece.b - lo * d

    def wnum(t: Rat) -> Rat:
        # numerator of (shifted/t)': -ac t^2 - 2bc t - bd over positive square
        return -(a * c) * t * t - 2 * b * c * t - b * d

    if u > lo and wnum(u - lo) > 0:
        return u, v
    if wnum(v - lo) > 0:
        return v, u
    return None


# ---------------------------------------------------------------------------
# the decision procedures


def _floor_report(points: list, gaps: list, lower: bool) -> Optional[CheckReport]:
    """L2 for a lower set: f(c) <= c- forces f(c) = f(1).  U2 for an upper
    set, where only f(c) < c- (strict) forces it.  The points and gaps are
    those of hull_walk(T, f); a report reads c- from its point, and from a
    gap's probe t it reads s.lo inside a summand s and t itself otherwise."""
    rule, name, below = ("L2", "phi", operator.le) if lower else ("U2", "psi", operator.lt)
    f1 = points[-1][1]

    def report(c: Rat, fc: Rat, cminus: Rat) -> CheckReport:
        values = ((f"{name}(c)", fc), ("c_minus", cminus), (f"{name}(1)", f1))
        return violated(rule, PointWitness(c, values))

    for c, fc, cminus, _ in points:
        if below(fc, cminus) and fc != f1:
            return report(c, fc, cminus)
    for p, q, piece, s in gaps:
        m = (p + q) / 2
        fm = piece(m)
        if below(fm, s.lo if s else m) and not (piece.is_const and fm == f1):
            t = next(t for t in gap_probes(p, q) if piece(t) != f1)
            return report(t, piece(t), s.lo if s else t)
    return None


def _frame_report(
    T: OrdinalSumTNorm, f: PwFn, s: Summand, lower: bool, caps: dict[Summand, PwFn]
) -> Optional[CheckReport]:
    """L3 (lower set) or U3 (upper set) on summand s; a cap built goes to caps[s]."""
    if lower:
        rule, name, witness, basic = "L3", "phi", def_lower_witness, basic_lower_violation
    else:
        rule, name, witness, basic = "U3", "psi", def_upper_witness, basic_upper_violation
    lo, hi = s.lo, s.hi
    if f.eval(lo) < lo:
        return None  # premise of the frame condition fails; nothing to check
    window = f.restrict(lo, hi)
    if window.global_inf().value < lo:
        x = _point_below(window, lo)
        return violated(
            rule,
            witness(T, f, lo, x),
            detail=f"{name} drops below the frame floor {fmt_rat(lo)}",
        )
    caps[s] = restricted_cap(window, s)
    pair = basic(caps[s], s.kind)
    if pair is None:
        return None
    return violated(
        rule,
        witness(T, f, *pair),
        detail=f"frame ({fmt_rat(lo)}, {fmt_rat(hi)}) of kind {s.kind.value}",
    )


def _point_below(window: PwFn, level: Rat) -> Rat:
    """A real point of the window where the function is < level."""
    for bp in window.breakpoints:
        if bp.at < level:
            return bp.x
    for i, piece in enumerate(window.pieces):
        left, right = window.breakpoints[i], window.breakpoints[i + 1]
        for anchor, other, limit in ((left.x, right.x, left.right), (right.x, left.x, right.left)):
            if limit < level:
                return halve_toward(anchor, other, lambda t: piece(t) < level)
    raise AssertionError("no point below level found")  # pragma: no cover


def _lower_set(T: OrdinalSumTNorm, phi: PwFn) -> tuple[CheckReport, Optional[tuple], dict]:
    """The verdict of check_lower_set, phi's hull walk (None when L1 fails)
    and the capped restriction of every summand whose frame L3 scanned, so
    that the flatness conditions build neither again."""
    _require_unit_domain(phi, "lower-set candidate")
    caps: dict[Summand, PwFn] = {}
    pair = phi.monotone_violation("decreasing")
    if pair:
        rep = violated("L1", def_lower_witness(T, phi, pair[1], pair[0]), detail="not decreasing")
        return rep, None, caps

    walk = points, gaps = hull_walk(T, phi)
    phi1 = points[-1][1]
    rep = _floor_report(points, gaps, lower=True)
    if rep is None:
        # L4: idempotent c with phi(c) >= c forces phi(1) >= c
        at = (c for c, fc, cminus, cplus in points if cminus == cplus and fc >= c > phi1)
        inside = (
            (max(p, phi1) + q) / 2
            for p, q, piece, s in gaps
            if s is None and piece((p + q) / 2) >= (p + q) / 2 and phi1 < q
        )
        c = next(chain(at, inside), None)
        if c is not None:
            rep = violated("L4", PointWitness(c, (("phi(c)", phi.eval(c)), ("phi(1)", phi1))))
    if rep is None:
        # L3: per-summand frame condition
        frames = (_frame_report(T, phi, s, True, caps) for s in T.summands)
        rep = next((r for r in frames if r is not None), HOLDS)
    return rep, walk, caps


def check_lower_set(T: OrdinalSumTNorm, phi: PwFn) -> CheckReport:
    """Decide whether phi is a fuzzy lower set of ([0,1], d_L), exactly."""
    return _lower_set(T, phi)[0]


def check_upper_set(T: OrdinalSumTNorm, psi: PwFn) -> CheckReport:
    """Decide whether psi is a fuzzy upper set of ([0,1], d_L), exactly."""
    _require_unit_domain(psi, "upper-set candidate")
    pair = psi.monotone_violation("increasing")
    if pair:
        return violated("U1", def_upper_witness(T, psi, *pair), detail="not increasing")

    rep = _floor_report(*hull_walk(T, psi), lower=False)
    if rep is None:
        # U3: per-summand frame condition
        frames = (_frame_report(T, psi, s, False, {}) for s in T.summands)
        rep = next((r for r in frames if r is not None), HOLDS)
    return rep
