"""Brute-force verifiers and randomized harnesses for the exact modules.

Everything here re-derives answers from raw definitions: adjunction on
grid triples, the idempotent sandwich law, the definitional lower/upper
set inequalities on sampled real points, and flatness against sampled
upper-set pairs.  Falsifiers never claim completeness; a "holds" verdict
means no counterexample at the stated budget.  The exact checkers remain
the decision procedures; these oracles guard against implementation
drift.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .ideal import NetSpec, _canonical_pair, _separating_pair, check_flat, is_inhabited
from .ideal import net_ideal, pasted_flat
from .order import (
    check_lower_set,
    check_upper_set,
    principal_lower,
    principal_upper,
    tensor,
)
from .pwfn import Breakpoint, PwFn, pointwise_max, pointwise_min, pwfn
from .rat import ONE, ZERO, DomainError, Rat
from .report import CheckReport, PairWitness, PointWitness, TensorWitness, violated
from .tnorms import OrdinalSumTNorm, SummandKind, make_tnorm

# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class GridSpec:
    """A uniform rational grid {k/n} of the given resolution.

    ``points`` always adjoins the summand endpoints of the t-norm under
    test and, when a function is supplied, its breakpoints together with
    nearby off-grid probes on both sides of each breakpoint (so jump
    behaviour is exercised at real points).
    """

    resolution: int

    def __post_init__(self):
        _require_int(self.resolution, "grid resolution")
        if self.resolution < 1:
            raise DomainError("grid resolution must be at least 1")

    def points(
        self, T: Optional[OrdinalSumTNorm] = None, f: Optional[PwFn] = None
    ) -> list[Rat]:
        D, P = self.scaled(T, f)
        return [Fraction(p, D) for p in P]

    def scaled(
        self, T: Optional[OrdinalSumTNorm] = None, f: Optional[PwFn] = None
    ) -> tuple[int, list[int]]:
        """(D, P), the ascending ``points`` times D, on integers.  D is the
        lcm of n, the summand-end denominators and 8 times each breakpoint
        denominator, so every scaled breakpoint is a multiple of 8 and each
        probe, an eighth of a gap away from one, is an exact integer."""
        n = self.resolution
        ends = T.idempotent_levels() if T is not None else []
        xs = f.positions() if f is not None else []
        D = math.lcm(n, *(e.denominator for e in ends), *(8 * x.denominator for x in xs))
        X = [x.numerator * (D // x.denominator) for x in xs]
        pts = set(range(0, D + 1, D // n))
        pts.update(e.numerator * (D // e.denominator) for e in ends)
        pts.update(X)
        pts.update(b - (b - a) // 8 for a, b in zip(X, X[1:]))
        pts.update(a + (b - a) // 8 for a, b in zip(X, X[1:]))
        return D, sorted(pts)


@dataclass(frozen=True)
class TrialConfig:
    """A positive trial budget and a seed; identical seeds replay exactly."""

    trials: int
    seed: int = 0

    def __post_init__(self):
        _require_int(self.trials, "trial budget")
        if self.trials < 1:
            raise DomainError("trial budget must be positive")


def _require_int(v: object, what: str) -> None:
    if not isinstance(v, int) or isinstance(v, bool):
        raise DomainError(f"{what} must be an int, not {type(v).__name__}")


# ---------------------------------------------------------------------------
# grid-loop kernel: a value is n/(d*D) with d > 0, never reduced


def _scale_to_lcm(*rows: Sequence[tuple[int, int]]) -> tuple[int, list[list[int]]]:
    """(D, [row*D, ...]) for rows of (num, den) pairs, D the lcm of every den.

    Multiplying by a positive D preserves order and equality, so any
    comparison, ``bisect`` or membership test gives the same answer on the
    scaled integers as on the rationals.
    """
    D = math.lcm(*(d for row in rows for _, d in row))
    return D, [[n * (D // d) for n, d in row] for row in rows]


def scaled_pair_ops(
    T: OrdinalSumTNorm, pts: Sequence[tuple[int, int]], vals: Sequence[tuple[int, int]]
) -> tuple[int, list[int], list[int], list[int], Callable, Callable]:
    """(D, pts*D, vals*D, ends*D, conj, res) for the grid loops, on integers.

    ``D`` is the lcm of the denominators of the (num, den) pairs ``pts``,
    ``vals`` and the summand endpoints; ``ends`` lists lo, hi of each summand in order.
    ``res(a, b)`` is the residuum a -> b for scaled a > b; ``conj(f, n, d)``
    is the t-norm of a scaled value f and the value n/(d*D).  Both return a pair (n, d) and re-derive the ordinal-sum
    formulas without calling ``T``.
    """
    ends = [e.as_integer_ratio() for s in T.summands for e in (s.lo, s.hi)]
    D, (P, V, E) = _scale_to_lcm(pts, vals, ends)
    summs = tuple(
        (lo, hi, s.kind is SummandKind.LUKASIEWICZ)
        for lo, hi, s in zip(E[::2], E[1::2], T.summands)
    )

    def conj(f, n, d):
        fd = f * d
        for lo, hi, luk in summs:
            if (lo * d > n) if fd > n else (lo > f):  # lo above the smaller argument
                break
            if (fd if fd > n else n) <= hi * d:
                if luk:
                    v = fd + n - hi * d
                    return (v, d) if v > lo * d else (lo, 1)
                w = hi - lo
                return lo * d * w + (f - lo) * (n - lo * d), d * w
        return (n, d) if fd > n else (f, 1)

    def res(a, b):
        for lo, hi, luk in summs:
            if lo > b:
                break
            if a <= hi:
                if luk:
                    return hi - a + b, 1
                return lo * (a - lo) + (hi - lo) * (b - lo), a - lo
        return b, 1

    return D, P, V, E, conj, res


# ---------------------------------------------------------------------------
# exhaustive grid verifiers


def verify_adjunction(T: OrdinalSumTNorm, grid: GridSpec) -> CheckReport:
    """conj(x,y) <= z iff y <= residuum(x,z), exhaustively on the grid cube.

    Also checks that the grid-restricted residuum (the largest grid z with
    conj(x,z) <= y) never exceeds the closed form, with equality whenever
    the closed-form value lies on the grid.  Each row of ``T.conj`` and
    ``T.residuum`` values is compared on integers scaled by the row's lcm;
    witnesses carry the rationals.  A wrong value inside its grid cell passes
    those, so the same rows then meet exact laws (:func:`_broken_laws`).
    """
    pts = grid.points(T)
    ratios = [x.as_integer_ratio() for x in pts]
    n = len(pts)
    conj_rows: list[list[Rat]] = []
    broken: list[CheckReport] = []
    for x in pts:
        conj_row = [T.conj(x, y) for y in pts]
        res_row = [T.residuum(x, z) for z in pts]
        conj_rows.append(conj_row)
        broken += _broken_laws(T, pts, conj_rows, res_row)
        _, (P, C, R) = _scale_to_lcm(ratios, *([q.as_integer_ratio() for q in row] for row in (conj_row, res_row)))
        for j, y in enumerate(P):
            kc = bisect.bisect_left(P, C[j])
            kr = bisect.bisect_left(R, y)
            if kc != kr:
                k = min(kc, kr)
                return violated(
                    "DEF",
                    PointWitness(
                        x,
                        (
                            ("x", x),
                            ("y", pts[j]),
                            ("z", pts[k]),
                            ("conj(x,y)", conj_row[j]),
                            ("residuum(x,z)", res_row[k]),
                        ),
                    ),
                    detail="adjunction biconditional fails",
                )
        on_grid = set(P)
        for k, z in enumerate(P):
            j = bisect.bisect_right(C, z) - 1
            if j >= 0:
                gm, r = P[j], R[k]
                if gm > r or (r in on_grid and gm != r):
                    return violated(
                        "DEF",
                        PointWitness(
                            x, (("y", pts[k]), ("grid_max", pts[j]), ("residuum", res_row[k]))
                        ),
                        detail="grid residuum disagrees with closed form",
                    )
    if broken:
        return broken[0]
    return CheckReport(True, detail=f"adjunction exact on {n}^3 grid triples")


def _broken_laws(
    T: OrdinalSumTNorm, pts: list[Rat], conj_rows: list[list[Rat]], res_row: list[Rat]
) -> Iterator[CheckReport]:
    """The exact laws the newest row breaks, in order (``pts`` ascends to 1)."""
    i = len(conj_rows) - 1
    x, row = pts[i], conj_rows[i]
    laws = (
        ("conj(1, y) = y", row, pts if x == ONE else row),
        ("conj(0, y) = 0", row, [ZERO] * len(row) if x == ZERO else row),
        ("conj(x, y) = conj(y, x)", row, [r[i] for r in conj_rows] + row[i + 1 :]),
        ("residuum(x, y) = 1 iff x <= y",
         [r == ONE for r in res_row], [k >= i for k in range(len(row))]),
        ("conj(x, 1) = x", row, row[:-1] + [x]),
        ("conj(c, c) = c", row, row[:i] + [x] + row[i + 1 :] if T.is_idempotent(x) else row),
    )
    for law, got, want in laws:
        if got != want:
            j = next(j for j, (g, w) in enumerate(zip(got, want)) if g != w)
            values = (("x", x), ("y", pts[j]), ("conj(x,y)", row[j]), ("residuum(x,y)", res_row[j]))
            yield violated("DEF", PointWitness(x, values), detail=f"law {law} fails")


def verify_sandwich(T: OrdinalSumTNorm, grid: GridSpec) -> CheckReport:
    """conj(x, y) = min(x, y) whenever x <= c <= y for an idempotent c.

    The law does not depend on c, so each pair is checked once: at the
    idempotent index k only x in (prev, k] is new, prev being the previous
    idempotent index.  The count and the first failure, with its c, are
    those of the walk over every triple.
    """
    pts = grid.points(T)
    n = len(pts)
    checked = 0
    prev = -1
    for k, c in enumerate(pts):
        if not T.is_idempotent(c):
            continue
        checked += (k + 1) * (n - k)
        hi_part = pts[k:]
        for x in pts[prev + 1 : k + 1]:
            for y in hi_part:
                v = T.conj(x, y)
                if v != min(x, y):
                    return violated(
                        "DEF",
                        PointWitness(c, (("x", x), ("y", y), ("conj", v))),
                        detail="sandwich law fails",
                    )
        prev = k
    return CheckReport(True, detail=f"sandwich exact on {checked} triples")


# ---------------------------------------------------------------------------
# definitional falsifiers


def _grid_values(f: PwFn, D: int, P: Sequence[int]) -> list[tuple[int, int]]:
    """f(p/D) as a reduced (num, den), den > 0, for each p of the ascending
    ``P``, in one pass over f's breakpoints: a breakpoint's ``at`` ratio, or
    (A*p + B*D)/(C*p + E*D) on a piece (a*x + b)/(c*x + d), with A, B, C, E
    its coefficients times the lcm of their denominators.  A point off f's
    domain raises the DomainError of ``f.eval`` for the first such point."""
    bps = f.breakpoints
    X = [bp.x.numerator * (D // bp.x.denominator) for bp in bps]
    if P[0] < X[0] or P[-1] > X[-1]:
        f.eval(Fraction(P[0] if P[0] < X[0] else P[bisect.bisect_right(P, X[-1])], D))
    out, i = [], 0
    for p in P:
        if X[i] < p:
            while X[i] < p:
                i += 1
            pc = f.pieces[i - 1]
            L = math.lcm(pc.a.denominator, pc.b.denominator, pc.c.denominator, pc.d.denominator)
            A, B, C, E = (int(q * L) for q in (pc.a, pc.b * D, pc.c, pc.d * D))
        if X[i] == p:
            out.append(bps[i].at.as_integer_ratio())
        else:
            num, den = A * p + B, C * p + E
            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
            out.append((num // g, den // g))
    return out


def falsify_lower_set(T: OrdinalSumTNorm, phi: PwFn, grid: GridSpec) -> CheckReport:
    """Search real point pairs for conj(phi(x), d_L(y,x)) > phi(y).

    A holds verdict means only "no counterexample at this resolution".
    Pairs y <= x reduce to monotonicity, checked first, so phi does not
    increase on the grid afterwards.  In row x, let [lo, hi) be the summand
    holding x.  For y > hi no summand holds both x and y, so y -> x = x and
    the lhs is conj(phi(x), x) on that part of the row; phi(y) is least at
    y = 1, so a pair there fails only if (x, 1) does, and the part is
    scanned only then.  For x < y <= hi, r = y -> x is hi - y + x
    (Lukasiewicz) or lo + (hi - lo)(x - lo)/(y - lo) (product), in [lo, hi),
    so the summand of (phi(x), r) follows from phi(x) alone.  If phi(x) <
    lo the lhs is phi(x): the smaller argument, or the argument of a summand
    ending at r = lo, whose top is its unit.  Else it is conj(c, r) with c =
    min(phi(x), hi), since conj(a, r) = r = conj(hi, r) for a > hi: max(lo,
    c + x - y) or lo + (c - lo)(x - lo)/(y - lo).  So the pair fails iff
    c + x - y > phi(y) or lo > phi(y) (Lukasiewicz), or (c - lo)(x - lo) >
    (phi(y) - lo)(y - lo) (product), one comparison of integers scaled by
    D.  The scan keeps pair order, so the first violation and its witness
    are those of the scan over every pair.
    """
    return _falsify_pairs(T, phi, grid, True)


def falsify_upper_set(T: OrdinalSumTNorm, psi: PwFn, grid: GridSpec) -> CheckReport:
    """Search real point pairs for conj(d_L(x,y), psi(x)) > psi(y).

    After the monotone part psi does not decrease on the grid.  Rows run
    from x = 1 down.  In row x, let (lo, hi] be the summand holding x.  For
    y < lo no summand holds both x and y, nor 1 and y, so x -> y = y =
    1 -> y; conj is monotone and psi(x) <= psi(1), so the pair fails only
    if (1, y) fails.  Row 1 comes first and is scanned in full; a later row
    scans y in [lo, x), and only if psi(x) >= lo.  There r = x -> y is in
    [lo, hi), so, as for lower sets, with c = min(psi(x), hi) the pair fails
    iff c - x + y > psi(y) or lo > psi(y), or (c - lo)(y - lo) > (psi(y) -
    lo)(x - lo).  Neither psi(x) < lo nor lo > psi(y) is tested: (1, y)
    fails first, as conj(y, psi(1)) >= conj(y, psi(x)) = psi(x) > psi(y) or
    conj(y, psi(1)) >= conj(y, lo) = lo > psi(y).  The first violation and
    its witness are those of the scan over every pair.
    """
    return _falsify_pairs(T, psi, grid, False)


def _falsify_pairs(T: OrdinalSumTNorm, f: PwFn, grid: GridSpec, lower: bool) -> CheckReport:
    """The monotone part, then the rows that the falsifier docstrings split:
    pairs within the summand of x by :func:`_summand_row`, the rest by the
    scaled ``conj``/``res``, which also give the witness lhs."""
    D, P = grid.scaled(T, f)
    D, P, V, E, conj, res = scaled_pair_ops(T, [(p, D) for p in P], _grid_values(f, D, P))
    n = len(P)
    for i in range(n - 1):
        if (V[i] < V[i + 1]) if lower else (V[i] > V[i + 1]):
            a, b = (i + 1, i) if lower else (i, i + 1)
            xa, xb, fa, fb = (Fraction(k, D) for k in (P[a], P[b], V[a], V[b]))
            wit = PairWitness(xa, xb, fa, fb, fa, fb, "<=")
            return violated("DEF", wit, detail="definitional falsifier (monotone part)")
    luk = [s.kind is SummandKind.LUKASIEWICZ for s in T.summands]
    for ix in range(n) if lower else range(n - 1, -1, -1):
        x, fx = P[ix], V[ix]
        if lower:
            j = bisect.bisect_right(E, x)  # odd iff E[j - 1] <= x < E[j], a summand
            stop = bisect.bisect_right(P, E[j]) if j % 2 else ix + 1
            num, den = conj(fx, x, 1)  # every pair past the summand, y -> x = x
            within, rest = range(ix + 1, stop), range(stop, n if num > V[-1] * den else stop)
        else:
            j = bisect.bisect_left(E, x)  # odd iff E[j - 1] < x <= E[j], a summand
            start = bisect.bisect_left(P, E[j - 1]) if j % 2 and fx >= E[j - 1] else ix
            within, rest = (range(0), range(ix)) if ix == n - 1 else (range(start, ix), range(0))
        hit = _summand_row(P, V, within, x, fx, E[j - 1], E[j], luk[j // 2], lower) if within else None
        for iy in rest if hit is None else ():
            num, den = conj(fx, *(res(P[iy], x) if lower else res(x, P[iy])))
            if num > V[iy] * den:
                hit = iy
                break
        if hit is not None:
            num, den = conj(fx, *(res(P[hit], x) if lower else res(x, P[hit])))
            xa, xb, fa, fb = (Fraction(k, D) for k in (P[ix], P[hit], V[ix], V[hit]))
            wit = PairWitness(xa, xb, fa, fb, Fraction(num, den * D), fb, "<=")
            return violated("DEF", wit, detail=f"definitional falsifier, grid n={grid.resolution}")
    return CheckReport(True, detail=f"no counterexample among {n}^2 sampled pairs")


def _summand_row(
    P: list[int], V: list[int], ys: range, x: int, fx: int, lo: int, hi: int, luk: bool, lower: bool
) -> Optional[int]:
    """The first iy in ``ys`` whose pair with x fails, x and every P[iy] lying
    in the summand [lo, hi]: the closed forms of the falsifier docstrings."""
    if fx < lo:
        return next((iy for iy in ys if V[iy] < fx), None)
    c = min(fx, hi)
    cx, cl, xl = (c + x if lower else c - x), c - lo, x - lo
    if luk and lower:
        return next((iy for iy in ys if V[iy] < lo or V[iy] + P[iy] < cx), None)
    if luk:
        return next((iy for iy in ys if V[iy] - P[iy] < cx), None)
    if lower:
        return next((iy for iy in ys if (V[iy] - lo) * (P[iy] - lo) < cl * xl), None)
    return next((iy for iy in ys if (V[iy] - lo) * xl < cl * (P[iy] - lo)), None)


def falsify_flat(T: OrdinalSumTNorm, phi: PwFn, cfg: TrialConfig) -> CheckReport:
    """Sample upper-set pairs hunting for a flatness violation, exactly.

    Requires phi to be an inhabited fuzzy lower set; failing that, the
    report carries rule PRE and points at the failed precondition.  Given
    it, tensor(phi, d_L(c, -)) = phi(c) (Yoneda) and tensor(phi, const k) =
    conj(phi(0), k) are the single tensors of principal and constant
    trials.  The joint is at most min(t1, t2); a trial asks if it gets there.
    A principal/principal trial is decided by the identity alone.
    """
    pre, failed = check_lower_set(T, phi), "not a lower set"
    if pre:
        pre, failed = is_inhabited(phi), "not inhabited"
    if not pre:
        detail = f"precondition: {failed}"
        return CheckReport(False, rule="PRE", witness=pre.witness, detail=detail)
    phi0 = phi.eval(ZERO)
    rng = random.Random(cfg.seed)
    for trial in range(cfg.trials):
        if trial % 4 == 3:
            pair = (None, random_upper(T, rng), random_upper(T, rng))
        elif trial % 3 == 0:
            # d_L(a, -) ^ d_L(b, -) = d_L(max(a, b), -), so by Yoneda both sides
            # are phi(max(a, b)): a principal pair never separates
            random_rat(rng), random_rat(rng)
            continue
        elif trial % 3 == 1:
            k, b = random_rat(rng), random_rat(rng)
            pair = (None, PwFn.constant(k), principal_upper(T, b), T.conj(phi0, k), phi.eval(b))
        else:
            pair = _canonical_pair(T, phi, random_rat(rng))
        wit = _separating_pair(T, phi, *pair)
        if wit is not None:
            return violated("DEF", wit, detail=f"flatness violated at trial {trial}")
    return CheckReport(True, detail=f"no counterexample in {cfg.trials} trials")


# ---------------------------------------------------------------------------
# random generators


_DENOMS = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24)


def random_rat(rng: random.Random) -> Rat:
    d = rng.choice(_DENOMS)
    return Fraction(rng.randint(0, d), d)


def random_tnorm(rng: random.Random) -> OrdinalSumTNorm:
    """A random ordinal sum: 0-4 summands with random rational endpoints."""
    k = rng.randint(0, 4)
    if k == 0:
        return make_tnorm([])
    cuts = sorted(rng.sample(range(1, 24), 2 * k))
    pts = [Fraction(c, 24) for c in cuts]
    if rng.random() < 0.4:
        pts[0] = ZERO
    if rng.random() < 0.4:
        pts[-1] = ONE
    # occasionally glue two adjacent summands at a shared endpoint
    if k >= 2 and rng.random() < 0.4:
        i = rng.randrange(1, k)
        pts[2 * i - 1] = pts[2 * i]
    # distinct cuts, and neither the 0/1 ends nor the glue close a summand
    kinds = (SummandKind.LUKASIEWICZ, SummandKind.PRODUCT)
    return make_tnorm([(pts[2 * i], pts[2 * i + 1], rng.choice(kinds)) for i in range(k)])


def random_pwfn(rng: random.Random) -> PwFn:
    """An arbitrary random piecewise-linear function with jumps, no validity intended."""
    xs = sorted({ZERO, ONE} | {random_rat(rng) for _ in range(rng.randint(0, 4))})
    bps = []
    for i, x in enumerate(xs):
        vals = [random_rat(rng)] * 3
        if rng.random() < 0.4:
            vals = [random_rat(rng) for _ in range(3)]
        bps.append(Breakpoint(x, *vals))
    return pwfn(bps)


def _monotone_mesh(
    rng: random.Random, T: OrdinalSumTNorm, increasing: bool
) -> tuple[list[Rat], list[Rat]]:
    xs = sorted(
        {ZERO, ONE}
        | set(T.idempotent_levels())
        | {random_rat(rng) for _ in range(rng.randint(1, 4))}
    )
    vals = sorted([random_rat(rng) for _ in xs], reverse=not increasing)
    return xs, vals


def random_upper(T: OrdinalSumTNorm, rng: random.Random) -> PwFn:
    """A genuine fuzzy upper set: a principal, a constant, a lattice
    combination of those (upper sets are closed under min and max), or the
    chords through an increasing random mesh, repaired by construction.

    The mesh holds every summand endpoint, so a chord (u, p) -> (v, q) lies
    in one frame [lo, hi] or in the min region, where each point is
    idempotent.  One pass from 0 repairs the chords.  Cap: in a frame with
    p < hi, q is at most p + (v - u) (Lukasiewicz) or, for u > lo, the ray
    lo + (p - lo)(x - lo)/(u - lo) at v (product), so the whole chord, not
    only its part below hi, obeys the cap.  Floor: if q < c- =
    idem_hull(v).lo, psi is held at q from v, or in the min region at t
    from the t in [u, v) where the chord meets the diagonal.

    Proof.  Before the hold psi >= c- at each mesh point, so a frame chord
    starts at p >= lo, either cap is at least p, and it ends below its
    floor only at v = hi, where c- = hi.  U1: the chords rise, and the tail
    continues the last one.  U2 (psi(c) < c- forces psi(c) = psi(1)): psi
    is psi(1) from the hold on; before it psi - id is affine and not
    negative at the ends of a min-region chord, and psi >= p >= lo = c- on
    a frame chord.  U3 (on a frame with psi(lo) >= lo, min(psi, hi) rises
    at slope at most 1 under Lukasiewicz, and (psi - lo)/(x - lo) does not
    increase under product): no frame straddles the hold, and a constant
    passes both.  Before it a Lukasiewicz chord with p < hi has slope at
    most 1, and min(psi, hi) = hi on one with p >= hi.  A product chord
    starts at lo or ends on or below the ray through (lo, lo) and (u, p),
    so its line is at least lo at lo and its ratio is A/(x - lo) + B with
    A >= 0; that and its minimum with (hi - lo)/(x - lo) do not increase,
    and psi is continuous, so neither does the ratio across mesh points.
    """
    style = rng.randrange(4)
    if style == 0:
        return principal_upper(T, random_rat(rng))
    if style == 1:
        return PwFn.constant(random_rat(rng))
    if style == 2:
        f = principal_upper(T, random_rat(rng))
        g = PwFn.constant(random_rat(rng))
        h = principal_upper(T, random_rat(rng))
        combo = pointwise_min(f, pointwise_max(g, h))
        return combo if rng.random() < 0.5 else pointwise_max(f, pointwise_min(g, h))
    return _repaired_upper(T, rng)


def _repaired_upper(T: OrdinalSumTNorm, rng: random.Random) -> PwFn:
    """Style 3 of :func:`random_upper`, whose docstring proves it an upper set."""
    xs, vals = _monotone_mesh(rng, T, increasing=True)
    pts = [(xs[0], vals[0])]
    for v, q in zip(xs[1:], vals[1:]):
        u, p = pts[-1]
        s = T.idem_hull((u + v) / 2).summand
        if s is not None and p < s.hi:
            if s.kind is SummandKind.LUKASIEWICZ:
                q = min(q, p + v - u)
            elif u > s.lo:
                q = min(q, s.lo + (p - s.lo) * (v - s.lo) / (u - s.lo))
        if q >= T.idem_hull(v).lo:
            pts.append((v, q))
            continue
        if s is None:  # p + (q - p)(x - u)/(v - u) = x at x = t
            v = q = u + (p - u) * (v - u) / ((v - q) + (p - u))
        if v > u:
            pts.append((v, q))
        if v < ONE:
            pts.append((ONE, q))
        break
    return PwFn.from_points(pts)


def random_lower(T: OrdinalSumTNorm, rng: random.Random) -> PwFn:
    """A genuine fuzzy lower set via principal ideals and lattice closure."""
    style = rng.randrange(3)
    if style == 0:
        return principal_lower(T, random_rat(rng))
    if style == 1:
        return PwFn.constant(random_rat(rng))
    f = principal_lower(T, random_rat(rng))
    g = PwFn.constant(random_rat(rng))
    h = principal_lower(T, random_rat(rng))
    return pointwise_max(pointwise_min(f, g), pointwise_min(g, h)) if rng.random() < 0.5 else pointwise_min(f, pointwise_max(g, h))


# ---------------------------------------------------------------------------
# flat-ideal candidate constructions


def flat_candidates(
    T: OrdinalSumTNorm, rng: random.Random, count: int
) -> list[PwFn]:
    """Genuinely flat ideals: principal, net-induced, and pasted frames."""
    out = []
    while len(out) < count:
        style = rng.randrange(4)
        if style == 0 or not T.summands:
            out.append(principal_lower(T, random_rat(rng)))
        elif style == 1:
            limit = random_rat(rng)
            pts = sorted({limit * Fraction(k, 7) for k in range(1, rng.randint(2, 5))})
            pts = [p for p in pts if p < limit]
            if not pts:
                out.append(principal_lower(T, limit))
                continue
            attained = rng.random() < 0.5
            out.append(net_ideal(T, NetSpec(tuple(pts), limit, attained)))
        elif style == 2:
            s = rng.choice(T.summands)
            b = s.lo + (s.hi - s.lo) * Fraction(rng.randint(0, 8), 8)
            out.append(pasted_flat(T, s, b))
        else:
            # principal thickened at the cut point by an idempotent value
            b = random_rat(rng)
            base = principal_lower(T, b)
            variant = _thicken_at_cut(T, base, b, rng)
            out.append(variant if variant is not None else base)
    return out


def _thicken_at_cut(
    T: OrdinalSumTNorm, base: PwFn, b: Rat, rng: random.Random
) -> Optional[PwFn]:
    if b == ZERO or b == ONE:
        return None
    # principal_lower(T, b) keeps a breakpoint at every interior b, and its
    # right limit there is b or the summand's hi: idempotent and <= left = 1
    idx = next(i for i, bp in enumerate(base.breakpoints) if bp.x == b)
    bp = base.breakpoints[idx]
    choices = [c for c in {bp.right, T.idem_hull(b).hi} if T.is_idempotent(c) and bp.right <= c <= bp.left]
    v = rng.choice(sorted(choices))
    pts = list(base.breakpoints)
    pts[idx] = Breakpoint(bp.x, bp.left, v, bp.right)
    return pwfn(pts, base.pieces)


def mutated_flat(
    T: OrdinalSumTNorm, rng: random.Random, rule: str
) -> Optional[PwFn]:
    """A lower set violating exactly the requested flatness condition.

    Returns None when the t-norm cannot host such a violation (for
    instance F2 needs a summand starting strictly above 0).
    """
    if rule == "F1":
        v0 = ZERO
        for _ in range(8):
            c = random_rat(rng)
            if c < ONE and T.is_idempotent(c):
                v0 = c
                break
        base = principal_lower(T, random_rat(rng))
        return pointwise_min(base, PwFn.constant(v0))
    if rule == "F2":
        hosts = [s for s in T.summands if s.lo > ZERO]
        if not hosts:
            return None
        s = rng.choice(hosts)
        w = s.lo + (s.hi - s.lo) * Fraction(rng.randint(1, 7), 8)
        ell = s.lo
        return pwfn(
            [
                Breakpoint(ZERO, ONE, ONE, w),
                Breakpoint(ell, w, ell, ell),
                Breakpoint(ONE, ell, ell, ell),
            ]
        )
    if rule == "F3":
        if not T.summands:
            return None
        s = rng.choice(T.summands)
        w = s.hi - s.lo
        b = s.lo + w * Fraction(rng.randint(1, 3), 8)
        k = s.lo + w * Fraction(rng.randint(5, 7), 8)
        # the pasted flat of b with its frame plateau lowered to k < hi: built
        # from principal pieces and constants, it meets them at rational points
        floor = pointwise_max(PwFn.constant(k), principal_lower(T, s.lo))
        return pointwise_min(pasted_flat(T, s, b), floor)
    raise DomainError(f"unknown flatness rule {rule!r}")


# ---------------------------------------------------------------------------
# the equivalence harness


@dataclass
class HarnessReport:
    lines: list[str] = field(default_factory=list)
    disagreements: int = 0

    @property
    def ok(self) -> bool:
        return self.disagreements == 0

    def text(self) -> str:
        return "\n".join(self.lines)


def revalidate_witness(
    T: OrdinalSumTNorm, f: PwFn, report: CheckReport, lower: bool
) -> bool:
    """Re-check a checker verdict against the raw definitional inequality."""
    w = report.witness
    if isinstance(w, PairWitness):
        if lower:
            return T.conj(f.eval(w.a), T.residuum(w.b, w.a)) > f.eval(w.b)
        return T.conj(T.residuum(w.a, w.b), f.eval(w.a)) > f.eval(w.b)
    if isinstance(w, PointWitness):
        c = w.c
        if lower:
            lhs = T.conj(f.eval(c), T.residuum(ONE, c))
            return lhs > f.eval(ONE)
        lhs = T.conj(T.residuum(ONE, c), f.eval(ONE))
        return lhs > f.eval(c)
    return False


def equivalence_harness(
    tnorms: Sequence[OrdinalSumTNorm],
    cfg: TrialConfig,
    grid: GridSpec,
) -> HarnessReport:
    """Cross-validate the exact checkers against the definitional oracles.

    Per t-norm family: random candidates are pushed through both the
    characterization checkers and the grid falsifiers; a holding checker
    verdict must produce no counterexample on ``grid``, a violating one must
    carry a definitionally re-checkable witness.  A smaller flat-ideal
    round does the same for check_flat versus 12 sampled upper pairs for
    each of 3 constructed flats.
    """
    rep = HarnessReport()
    for fi, T in enumerate(tnorms):
        rng = random.Random(cfg.seed * 1000003 + fi)
        notes: list[str] = []
        for t in range(cfg.trials):
            lower_candidate = t % 2 == 0
            roll = rng.random()
            if roll < 0.45:
                f = random_pwfn(rng)
            elif lower_candidate:
                f = random_lower(T, rng)
            else:
                f = random_upper(T, rng)
            kind, check, falsify = (
                ("lower", check_lower_set, falsify_lower_set)
                if lower_candidate
                else ("upper", check_upper_set, falsify_upper_set)
            )
            verdict = check(T, f)
            if verdict.holds:
                fal = falsify(T, f, grid)
                if not fal.holds:
                    notes.append(f"{kind} holds yet grid found {fal.describe()}")
            elif not revalidate_witness(T, f, verdict, lower=lower_candidate):
                notes.append(f"{kind} witness fails recheck: {verdict.describe()}")
        flats = flat_candidates(T, rng, 3)
        for phi in flats:
            verdict = check_flat(T, phi)
            if not verdict.holds:
                notes.append(f"constructed flat rejected: {verdict.describe()}")
                continue
            fal = falsify_flat(T, phi, TrialConfig(12, rng.randrange(1 << 30)))
            if not fal.holds:
                notes.append(f"flat holds yet trials found {fal.describe()}")
        for rule in ("F1", "F2", "F3"):
            phi = mutated_flat(T, rng, rule)
            if phi is None:
                continue
            verdict = check_flat(T, phi)
            if verdict.holds or verdict.rule != rule:
                notes.append(f"{rule} mutant misreported as {verdict.describe()}")
            elif rule in ("F2", "F3") and not isinstance(verdict.witness, TensorWitness):
                notes.append(f"{rule} mutant lacks a tensor witness")
        rep.disagreements += len(notes)
        line = (
            f"{'FAIL' if notes else 'PASS'} family={T.describe()} candidates={cfg.trials}"
            f" grid_n={grid.resolution} disagreements={len(notes)}"
        )
        rep.lines.append(f"{line} first: {notes[0]}" if notes else line)
    return rep


def lemma37_suite(cfg: TrialConfig) -> CheckReport:
    """Min-distributivity of sups for monotone maps on finite grids.

    For decreasing phi and increasing psi1, psi2 over a common finite set,
    sup(phi ^ psi1 ^ psi2) equals min(sup(phi ^ psi1), sup(phi ^ psi2)),
    exactly, trial by trial.
    """
    rng = random.Random(cfg.seed)
    for trial in range(cfg.trials):
        size = rng.randint(2, 9)
        phi = sorted((random_rat(rng) for _ in range(size)), reverse=True)
        psi1 = sorted(random_rat(rng) for _ in range(size))
        psi2 = sorted(random_rat(rng) for _ in range(size))
        joint = max(min(a, b, c) for a, b, c in zip(phi, psi1, psi2))
        split = min(
            max(min(a, b) for a, b in zip(phi, psi1)),
            max(min(a, c) for a, c in zip(phi, psi2)),
        )
        if joint != split:
            return violated(
                "DEF",
                PointWitness(Fraction(trial), (("joint", joint), ("split", split))),
                detail=f"distributivity fails at trial {trial}",
            )
    return CheckReport(True, detail=f"exact on {cfg.trials} random triples")


def yoneda_suite(T: OrdinalSumTNorm, cfg: TrialConfig) -> CheckReport:
    """tensor against check_lower_set, no grid: for lower sets phi,
    tensor(phi, d_L(c, -)) = (phi(c), attained) (Yoneda) and tensor(phi,
    const k) = conj(phi(0), k); an L witness (x, y), or (c, 1) for a point
    witness, of a ``random_pwfn`` f gives tensor(f, d_L(y, -)) > f(y)."""
    rng = random.Random(cfg.seed)
    witnesses = 0
    for trial in range(cfg.trials):
        phi = random_lower(T, rng) if trial % 2 else flat_candidates(T, rng, 1)[0]
        c, k, f = random_rat(rng), random_rat(rng), random_pwfn(rng)
        low = check_lower_set(T, f)
        y = low.witness.b if isinstance(low.witness, PairWitness) else ONE
        yon = tensor(T, phi, principal_upper(T, c))
        const = tensor(T, phi, PwFn.constant(k)).value
        wit = ZERO if low else tensor(T, f, principal_upper(T, y)).value
        for name, at, ok, value in (
            ("Yoneda form", c, yon == (phi.eval(c), True), yon.value),
            ("constant form", k, const == T.conj(phi.eval(ZERO), k), const),
            (f"{low.rule} witness", y, low.holds or wit > f.eval(y), wit),
        ):
            if not ok:
                witness = PointWitness(at, (("tensor", value),))
                return violated("DEF", witness, detail=f"{name} fails at trial {trial}")
        witnesses += not low
    detail = f"closed forms exact on {2 * cfg.trials} pairs and {witnesses} lower-set witnesses"
    return CheckReport(True, detail=detail)
