"""Flat ideals of ([0,1], d_L): decision procedure and constructions.

A flat ideal is an inhabited fuzzy lower set whose tensor distributes over
binary meets of upper sets.  The decision procedure checks three
conditions on the piecewise representation: the bottom carries full
membership (F1), values at or above the idempotent hull ceiling are
themselves idempotent (F2), and the capped restriction to every active
summand frame is a principal ideal of that frame (F3).  Violations of F2
and F3 come with a concrete pair of upper sets separating the two sides
of the flatness identity, with all three tensor values computed exactly,
whenever phi(0) = 1, as in every check_flat result; flat_conditions may
fall back to a point witness when phi(0) < 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .order import (
    _gap_walk,
    _lower_set,
    _min_gap_sup,
    hull_walk,
    lower_profile,
    principal_lower,
    principal_upper,
    restricted_cap,
    tensor,
)
from .pwfn import PwFn, _solve_eq, pointwise_min, pwfn
from .rat import ONE, ZERO, DomainError, Rat, ensure_unit, fmt_rat
from .report import HOLDS, CheckReport, PointWitness, TensorWitness, violated
from .tnorms import OrdinalSumTNorm, Summand

# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class NetSpec:
    """A monotone increasing rational sequence with a declared limit.

    The finite point list stands for the tail behaviour: when ``attained``
    the net is eventually constant at ``limit``, otherwise it increases
    strictly toward ``limit`` without reaching it.
    """

    points: tuple[Rat, ...]
    limit: Rat
    attained: bool

    def __post_init__(self):
        if not self.points:
            raise DomainError("a net needs at least one point")
        for p in self.points:
            ensure_unit(p, "net point")
        ensure_unit(self.limit, "net limit")
        for a, b in zip(self.points, self.points[1:]):
            if a >= b:
                raise DomainError("net points must be strictly increasing")
        if self.limit < self.points[-1]:
            raise DomainError("net limit below the last point")
        if not self.attained and self.limit == self.points[-1]:
            raise DomainError("a non-attained limit must lie above every point")


@dataclass(frozen=True)
class KInterval:
    lo: Rat
    lo_closed: bool
    hi: Rat
    hi_closed: bool

    def describe(self) -> str:
        if self.lo == self.hi:
            return "{" + fmt_rat(self.lo) + "}"
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{fmt_rat(self.lo)}, {fmt_rat(self.hi)}{rb}"


@dataclass(frozen=True)
class KSet:
    """The set where a lower set reaches its idempotent-hull ceiling."""

    intervals: tuple[KInterval, ...]

    def describe(self) -> str:
        return " u ".join(iv.describe() for iv in self.intervals) or "empty"


# ---------------------------------------------------------------------------
# inhabitedness


def is_inhabited(phi: PwFn) -> CheckReport:
    """Whether the supremum of phi reaches 1 (attained or as a limit)."""
    sup = phi.global_sup()
    detail = f"sup={fmt_rat(sup.value)} attained={sup.attained}"
    if sup.value == ONE:
        return CheckReport(True, detail=detail)
    return violated(
        "DEF", PointWitness(_sup_position(phi), (("sup", sup.value),)), detail=detail
    )


def _sup_position(phi: PwFn) -> Rat:
    target = phi.global_sup().value
    for bp in phi.breakpoints:
        if bp.at == target:
            return bp.x
    for bp in phi.breakpoints:
        if bp.right == target or bp.left == target:
            return bp.x
    raise AssertionError("global_sup reads a breakpoint's at, left or right")


# ---------------------------------------------------------------------------
# frame principals


def frame_principal_lower(T: OrdinalSumTNorm, s: Summand, b: Rat) -> PwFn:
    """The frame-principal ideal d_L^c(-, b): the profile on [s.lo, s.hi], s.hi at s.lo."""
    pts, pcs = lower_profile(s, b, s.lo, s.hi)
    i, j = int(s.lo > 0), len(pts) - int(s.hi < ONE)
    return pwfn(pts[i:j], pcs[i : j - 1])


# ---------------------------------------------------------------------------
# flat-ideal conditions


def _flat_reports(
    T: OrdinalSumTNorm, phi: PwFn, walk: tuple, caps: dict[Summand, PwFn]
) -> Iterator[tuple[str, CheckReport]]:
    """F1, F2 and F3 in order, each evaluated only when it is asked for.
    F2 reads the hull walk and F3 the frame caps that the lower-set check
    of phi built, so phi is walked once and each frame capped once."""
    yield "F1", _check_f1(phi)
    yield "F2", _check_f2(T, phi, walk)
    yield "F3", _check_f3(T, phi, caps)


def flat_conditions(T: OrdinalSumTNorm, phi: PwFn) -> dict[str, CheckReport]:
    """Per-rule verdicts for F1, F2 and F3, evaluated independently.

    A phi that is not a fuzzy lower set raises a DomainError naming its L rule.
    """
    pre, walk, caps = _lower_set(T, phi)
    if not pre:
        raise DomainError(f"not a fuzzy lower set: {pre.rule} fails")
    return dict(_flat_reports(T, phi, walk, caps))


def check_flat(T: OrdinalSumTNorm, phi: PwFn) -> CheckReport:
    """Decide whether phi is a flat ideal of ([0,1], d_L).

    A candidate failing the lower-set precondition is reported with the
    lower-set rule label (L1-L4); genuine flatness failures carry F1-F3.
    """
    pre, walk, caps = _lower_set(T, phi)
    if not pre:
        detail = "not a fuzzy lower set"
        if pre.detail:
            detail += "; " + pre.detail
        return CheckReport(False, rule=pre.rule, witness=pre.witness, detail=detail)
    return next((rep for _, rep in _flat_reports(T, phi, walk, caps) if not rep), HOLDS)


def _check_f1(phi: PwFn) -> CheckReport:
    v0 = phi.eval(ZERO)
    if v0 == ONE:
        return HOLDS
    return violated("F1", PointWitness(ZERO, (("phi(0)", v0),)))


def _check_f2(T: OrdinalSumTNorm, phi: PwFn, walk: tuple) -> CheckReport:
    points, gaps = walk
    for c, fc, _, cplus in points:
        if fc >= cplus and not T.is_idempotent(fc):
            return _f2_violation(T, phi, c, cplus)
    for p, q, piece, s in gaps:
        m = (p + q) / 2
        fm = piece(m)
        if fm < (s.hi if s else m):
            continue
        if piece.is_const:
            if not T.is_idempotent(fm):
                return _f2_violation(T, phi, m, s.hi if s else m)
            continue
        va, vb = sorted((piece(p), piece(q)))
        for summand in T.summands:
            w_lo, w_hi = max(va, summand.lo), min(vb, summand.hi)
            if w_lo < w_hi:
                target = (w_lo + w_hi) / 2
                c = _solve_eq(piece, target)
                assert c is not None and p < c < q
                return _f2_violation(T, phi, c, s.hi if s else c)
    return HOLDS


def _f2_violation(T: OrdinalSumTNorm, phi: PwFn, c: Rat, cplus: Rat) -> CheckReport:
    fc = phi.eval(c)
    detail = f"phi(c)={fmt_rat(fc)} >= c_plus={fmt_rat(cplus)} but {fmt_rat(fc)}"
    detail += " is not idempotent"
    return _flat_violation("F2", T, phi, [c], (("phi(c)", fc), ("c_plus", cplus)), detail)


def _flat_violation(
    rule: str, T: OrdinalSumTNorm, phi: PwFn, candidates: list[Rat], values: tuple, detail: str
) -> CheckReport:
    """The violation with a separating canonical pair, else the point values."""
    wit = _verified_pair_witness(T, phi, candidates)
    return violated(rule, wit or PointWitness(candidates[0], values), detail=detail)


def _check_f3(T: OrdinalSumTNorm, phi: PwFn, caps: dict[Summand, PwFn]) -> CheckReport:
    for s in T.summands:
        if phi.eval(s.lo) <= s.lo:
            continue
        sigma = caps[s]
        b = min(s.hi, phi.eval(s.hi))
        target = frame_principal_lower(T, s, b)
        if sigma == target:
            continue
        cands = _difference_points(sigma, target)
        detail = (
            f"restriction to ({fmt_rat(s.lo)}, {fmt_rat(s.hi)}) is not the"
            f" frame-principal ideal at {fmt_rat(b)}"
        )
        values = (("sigma", sigma.eval(cands[0])), ("principal", target.eval(cands[0])))
        return _flat_violation("F3", T, phi, cands, values, detail)
    return HOLDS


def _difference_points(f: PwFn, g: PwFn) -> list[Rat]:
    """Frame points where two same-domain functions visibly differ."""
    pos = sorted({bp.x for bp in f.breakpoints} | {bp.x for bp in g.breakpoints})
    f2, g2 = f.refine(pos), g.refine(pos)
    out = []
    for bf, bg in zip(f2.breakpoints, g2.breakpoints):
        if bf.at != bg.at:
            out.append(bf.x)
    for i in range(len(f2.pieces)):
        if f2.pieces[i] != g2.pieces[i]:
            out.append((pos[i] + pos[i + 1]) / 2)
    # pwfn() rejects a piece that disagrees with its stored one-sided limits
    assert out, "equal values and pieces on a common refinement mean f == g"
    return sorted(set(out))


def pasted_flat(T: OrdinalSumTNorm, s: Summand, b: Rat) -> PwFn:
    """A flat ideal pasted from a frame principal: full membership up to
    the frame, the frame-principal profile d_L^c(-, b) inside it, and the
    constant tail b beyond."""
    return pwfn(*lower_profile(s, b, s.lo, ONE))


def witness_upper_pair(T: OrdinalSumTNorm, phi: PwFn, c: Rat) -> tuple[PwFn, PwFn]:
    """The canonical falsifying pair: psi1 constant phi(c), psi2 = d_L(c, -)."""
    c = Rat(ensure_unit(c, "witness point"))
    return PwFn.constant(phi.eval(c)), principal_upper(T, c)


def _canonical_pair(T: OrdinalSumTNorm, phi: PwFn, c: Rat) -> tuple:
    """(c, psi1, psi2, t1, t2) for the canonical pair at c.  phi must be a
    lower set, phi(0) = 1 or not: the single tensors are then
    conj(phi(0), phi(c)) and phi(c) (Yoneda)."""
    fc = phi.eval(c)
    return (c, *witness_upper_pair(T, phi, c), T.conj(phi.eval(ZERO), fc), fc)


def _separating_pair(
    T: OrdinalSumTNorm,
    phi: PwFn,
    c: Optional[Rat],
    psi1: PwFn,
    psi2: PwFn,
    t1: Optional[Rat] = None,
    t2: Optional[Rat] = None,
) -> Optional[TensorWitness]:
    """The witness when tensor(phi, psi1 ^ psi2) < min(t1, t2), a single tensor
    not given being computed in full.  conj is monotone, so the joint never
    exceeds the minimum: one walk stops once the joint reaches it, and a
    joint below it comes out exact, ready for the witness."""
    if t1 is None:
        t1 = tensor(T, phi, psi1).value
    if t2 is None:
        t2 = tensor(T, phi, psi2).value
    joint = _gap_walk(T, phi, pointwise_min(psi1, psi2), min(t1, t2)).value
    return None if joint >= min(t1, t2) else TensorWitness(c, psi1, psi2, joint, t1, t2)


def _verified_pair_witness(
    T: OrdinalSumTNorm, phi: PwFn, candidates: list[Rat]
) -> Optional[TensorWitness]:
    """The first separating canonical pair of the first 12 candidates, or None.

    For a lower set with phi(0) = 1 a candidate of _check_f2 or _check_f3
    separates.  At c, v = phi(c) is both single tensors; the joint is at most
    conj(v, v) on x >= c and S = sup_{x<c} conj(phi(x), min(v, c->x)) below,
    so the pair separates iff v is not idempotent and S < v.
    F2: v >= c+ is not idempotent, so v > c+ >= S as c->x < c+ for x < c.
    F3 on the frame [a, b] of a summand with phi(a) > a: phi >= a there
    (L3), x < a adds at most a to S, and sigma = min(phi, b) may stand for
    phi on [a, c).  In frame coordinates sigma is a lower set of
    Lukasiewicz or product below tau = d(-, beta), beta = sigma(1).  If
    sigma(0) < 1, candidates[0] = a separates: phi(a) lies in (a, b) and
    S <= a.  Else let x1 = max{sigma = 1} and g = sigma + id (Lukasiewicz)
    or sigma * id (product); sigma falls and g rises, so g is continuous.
    sigma = tau off (x1, e'), e' = min{g = g(1)}, so the candidates lie
    there, with 0 < v < 1.  A term of S is min(sigma(x) * v, G(g(x))), G
    rising through v at g(c), so the pair fails iff g(c) = g(x1): on
    (x1, e], e = max{g = g(x1)} < e'.  The pieces of sigma change at e and
    e', so the refinement gap starting at e lies in (e, e') and its
    midpoint separates; sigma is one piece on [x1, e] and tau breaks only
    at beta, so at most four candidates come before it.
    """
    for c in candidates[:12]:
        wit = _separating_pair(T, phi, *_canonical_pair(T, phi, c))
        if wit is not None:
            return wit
    return None


# ---------------------------------------------------------------------------
# structure: restriction, nets


def restrict_ideal(T: OrdinalSumTNorm, phi: PwFn, c: Rat) -> PwFn:
    """Lemma: min(c+, phi) on [c-, c+] is a flat ideal of the frame quantale.

    Preconditions: c is not idempotent and phi(c-) > c-; phi should be a
    flat ideal of the ambient quantale.  The restriction is returned in
    frame coordinates (domain [c-, c+]); its value at c- is exactly c+.
    """
    c = Rat(ensure_unit(c, "restriction point"))
    hull = T.idem_hull(c)
    if hull.degenerate:
        raise DomainError(f"{fmt_rat(c)} is idempotent; the frame is degenerate")
    assert hull.summand is not None
    if phi.eval(hull.lo) <= hull.lo:
        raise DomainError(
            f"phi({fmt_rat(hull.lo)}) <= {fmt_rat(hull.lo)}: restriction premise fails"
        )
    sigma = restricted_cap(phi, hull.summand)
    if sigma.eval(hull.lo) != hull.hi:
        raise DomainError(
            "restriction is not inhabited in the frame; phi is not flat here"
        )
    return sigma


def net_ideal(T: OrdinalSumTNorm, net: NetSpec) -> PwFn:
    """The forward-Cauchy ideal of a monotone net, built exactly.

    For an attained limit this is the principal lower set of the limit.
    Otherwise it is the pointwise limit of principal lower sets from
    below: full membership strictly below the limit, the idempotent-hull
    ceiling at the limit point, and the residual tail beyond it.
    """
    if net.attained:
        return principal_lower(T, net.limit)
    x = net.limit
    s = next((s for s in T.summands if s.lo < x <= s.hi), None)
    return pwfn(*lower_profile(s, x, x, s.hi if s else x))


# ---------------------------------------------------------------------------
# the K-reduction of tensors


def k_set(T: OrdinalSumTNorm, phi: PwFn) -> KSet:
    """The exact set {x : phi(x) >= x+} as finitely many intervals."""
    points, gaps = hull_walk(T, phi)
    atoms: list[tuple[Rat, bool, Rat, bool]] = []
    for i, (c, fc, _, cplus) in enumerate(points):
        if fc >= cplus:
            atoms.append((c, True, c, True))
        if i < len(gaps):
            p, q, piece, s = gaps[i]
            m = (p + q) / 2
            if piece(m) >= (s.hi if s else m):
                atoms.append((p, False, q, False))
    merged: list[list] = []
    for lo, lc, hi, hc in atoms:
        if merged and merged[-1][2] == lo and (merged[-1][3] or lc):
            merged[-1][2], merged[-1][3] = hi, hc
        else:
            merged.append([lo, lc, hi, hc])
    return KSet(tuple(KInterval(*m) for m in merged))


def tensor_via_k(T: OrdinalSumTNorm, phi: PwFn, psi: PwFn) -> Rat:
    """sup over K_phi of min(phi, psi); equals tensor(T, phi, psi) whenever
    phi satisfies the ceiling and frame-principality conditions."""
    K = k_set(T, phi)
    if not K.intervals:
        raise DomainError("empty K set: phi violates the ceiling condition at 0")
    ends = {iv.lo for iv in K.intervals} | {iv.hi for iv in K.intervals}
    pos = sorted({bp.x for bp in phi.breakpoints} | {bp.x for bp in psi.breakpoints} | ends)
    f, g = phi.refine(pos), psi.refine(pos)
    best: Optional[Rat] = None
    for iv in K.intervals:
        for i, c in enumerate(pos):
            inside = (iv.lo < c < iv.hi) or (c == iv.lo and iv.lo_closed) or (
                c == iv.hi and iv.hi_closed
            )
            if inside:
                val = min(f.breakpoints[i].at, g.breakpoints[i].at)
                best = val if best is None else max(best, val)
        for i in range(len(pos) - 1):
            u, v = pos[i], pos[i + 1]
            if u >= iv.lo and v <= iv.hi and u < v:
                out = _min_gap_sup(f.pieces[i], g.pieces[i], u, v)
                best = out.value if best is None else max(best, out.value)
    assert best is not None
    return best
