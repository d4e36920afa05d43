"""Exact piecewise functions [0,1] -> [0,1] with first-class jumps.

A ``PwFn`` is a finite list of breakpoints, each carrying the limit from
below, the value at the point, and the limit from above.  Between
consecutive breakpoints the function is a single analytic piece with
rational coefficients: affine by default, or a linear-fractional segment
``(a*x + b)/(c*x + d)``.  The fractional pieces exist because residuated
implications of product-kind summands are exactly of that shape; they are
closed under every operation in this package and all breakpoints stay
rational.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from ._sup import SupResult, quad_roots
from .rat import ONE, ZERO, DomainError, ExactnessError, Rat, ensure_unit, fmt_rat

Side = str  # "below" | "at" | "above"

_SIDES = ("below", "at", "above")


# ---------------------------------------------------------------------------
# analytic pieces


@dataclass(frozen=True, slots=True)
class LinFrac:
    """The map x -> (a*x + b) / (c*x + d), normalized so c in {0, 1}.

    With c == 0 (then d == 1) the piece is affine.  A piece is only ever
    attached to a gap whose closure avoids the pole, so it is continuous
    and strictly monotone or constant there.
    """

    a: Rat
    b: Rat
    c: Rat
    d: Rat

    def __call__(self, x: Rat) -> Rat:
        if not self.c:  # affine, d == 1
            return self.a * x + self.b if self.a else self.b
        return (self.a * x + self.b) / (self.c * x + self.d)

    @property
    def is_affine(self) -> bool:
        return self.c == 0

    @property
    def is_const(self) -> bool:
        return self.c == 0 and self.a == 0

    def pole(self) -> Optional[Rat]:
        if self.c == 0:
            return None
        return -self.d / self.c

    def slope(self, x: Rat) -> Rat:
        """The derivative at x, a point off the pole."""
        if not self.c:  # affine
            return self.a
        den = self.c * x + self.d
        return (self.a * self.d - self.b * self.c) / (den * den)


def _solve_eq(piece: LinFrac, k: Rat) -> Optional[Rat]:
    """The root of a*x + b = k*(c*x + d), None unless there is exactly one."""
    den = piece.a - k * piece.c
    if den == 0:
        return None
    return (k * piece.d - piece.b) / den


def linfrac(a: Rat, b: Rat, c: Rat, d: Rat) -> LinFrac:
    if c == 0:
        if d == 0:
            raise ZeroDivisionError("degenerate linear-fractional piece")
        return LinFrac(a / d, b / d, ZERO, ONE)
    if a * d == b * c:
        # rank one: the quotient is the constant a/c wherever defined
        return LinFrac(ZERO, a / c, ZERO, ONE)
    return LinFrac(a / c, b / c, ONE, d / c)


def affine_piece(slope: Rat, intercept: Rat) -> LinFrac:
    return LinFrac(Rat(slope), Rat(intercept), ZERO, ONE)


def const_piece(k: Rat) -> LinFrac:
    return LinFrac(ZERO, Rat(k), ZERO, ONE)


def chord(x0: Rat, y0: Rat, x1: Rat, y1: Rat) -> LinFrac:
    """Affine piece through two points with distinct abscissae."""
    slope = (y1 - y0) / (x1 - x0)
    return affine_piece(slope, y0 - slope * x0)


def _meets(p: LinFrac, q: LinFrac, u: Rat, v: Rat) -> tuple:
    """:func:`quad_roots` of the numerator of p - q over (u, v)."""
    return quad_roots(
        p.a * q.c - q.a * p.c,
        p.a * q.d + p.b * q.c - q.a * p.d - q.b * p.c,
        p.b * q.d - q.b * p.d,
        u,
        v,
    )


def crossings(p: LinFrac, q: LinFrac, u: Rat, v: Rat) -> list[Rat]:
    """Interior points of (u, v) where p - q changes sign.

    Both pieces must be pole-free on [u, v].  Touch points (where the
    difference vanishes without changing sign) are not reported; they do
    not affect pointwise min/max.  Raises :class:`ExactnessError` if a
    sign change happens at an irrational point.
    """
    xs = [x for x, slope in _meets(p, q, u, v) if slope]
    if xs and xs[0] is None:
        what = "crossing pair" if len(xs) == 2 else "crossing"
        raise ExactnessError(
            f"irrational {what} of pieces inside ({fmt_rat(u)}, {fmt_rat(v)})"
        )
    return xs


def gap_probes(u: Rat, v: Rat) -> tuple[Rat, Rat, Rat]:
    """Three distinct points of (u, v): the midpoint, then the quarter points,
    a sorted pair inside the gap.  Two pieces that differ somewhere on the gap
    agree at two points at most, so they differ at one of these."""
    return ((u + v) / 2, u + (v - u) / 4, u + 3 * (v - u) / 4)


def halve_toward(anchor: Rat, other: Rat, ok: Callable[[Rat], bool]) -> Rat:
    """The first t = anchor + (other - anchor)/2**k, k = 1..64, with ok(t).

    Witness searches use it for a violation that holds at every point close
    enough to ``anchor`` on the side of ``other``.
    """
    step = (other - anchor) / 2
    for _ in range(64):
        t = anchor + step
        if ok(t):
            return t
        step /= 2
    raise AssertionError("witness search failed")  # pragma: no cover


def law_violation(
    f: PwFn,
    bad: Callable[[Rat, Rat, Rat, Rat], bool],
    falls: Callable[[LinFrac, Rat], bool],
    whole: Callable[[LinFrac], bool],
) -> Optional[tuple[Rat, Rat]]:
    """A real pair a < b with bad(a, f(a), b, f(b)), or None: the first break
    of a law that g(x, f(x)) does not decrease, where bad(a, ya, b, yb) says
    g(a, ya) > g(b, yb).

    Pieces come first.  falls(piece, x) says g' < 0 at x, and the law must
    make g' < 0 anywhere on a gap show at an end, tried u, then v.  With
    whole(piece) g' < 0 on the whole gap, and the quarter points are the
    pair; otherwise the pair closes in on that end.  Then the jumps, in
    order: a pair straddling x0 breaks the law near x0 exactly when the
    one-sided limits do, bad(x0, left, x0, at) or bad(x0, at, x0, right).
    """
    bps, xs = f.breakpoints, f._xs
    for piece, u, v in zip(f.pieces, xs, xs[1:]):
        for anchor, other in ((u, v), (v, u)):
            if not falls(piece, anchor):
                continue
            if whole(piece):
                return gap_probes(u, v)[1:]

            def pair(t: Rat) -> tuple[Rat, Rat]:
                a, b = sorted(((anchor + t) / 2, t))
                return a, b

            def ok(t: Rat) -> bool:
                a, b = pair(t)
                return bad(a, piece(a), b, piece(b))

            return pair(halve_toward(anchor, other, ok))
    for i, bp in enumerate(bps):
        x0, at = bp.x, bp.at
        if i and bp.left != at and bad(x0, bp.left, x0, at):
            piece = f.pieces[i - 1]
            return halve_toward(x0, xs[i - 1], lambda t: bad(t, piece(t), x0, at)), x0
        if i < len(f.pieces) and at != bp.right and bad(x0, at, x0, bp.right):
            piece = f.pieces[i]
            return x0, halve_toward(x0, xs[i + 1], lambda t: bad(x0, at, t, piece(t)))
    return None


# ---------------------------------------------------------------------------
# breakpoints and the function type


@dataclass(frozen=True, slots=True)
class Breakpoint:
    x: Rat
    left: Rat
    at: Rat
    right: Rat


@dataclass(frozen=True)
class PwFn:
    """Piecewise function on a rational interval (the full [0,1] by default).

    ``pieces[i]`` is the analytic piece on the open gap between
    ``breakpoints[i]`` and ``breakpoints[i+1]``; its closed-gap values agree
    with the stored one-sided limits.  Instances are immutable and all
    operations are pure.
    """

    breakpoints: tuple[Breakpoint, ...]
    pieces: tuple[LinFrac, ...]

    # -- basic views --------------------------------------------------------

    @property
    def lo(self) -> Rat:
        return self.breakpoints[0].x

    @property
    def hi(self) -> Rat:
        return self.breakpoints[-1].x

    @cached_property
    def _xs(self) -> tuple[Rat, ...]:
        return tuple(bp.x for bp in self.breakpoints)

    def positions(self) -> list[Rat]:
        return list(self._xs)

    def __repr__(self) -> str:  # compact, debugging-oriented
        pts = ", ".join(
            f"{fmt_rat(bp.x)}:({fmt_rat(bp.left)},{fmt_rat(bp.at)},{fmt_rat(bp.right)})"
            for bp in self.breakpoints
        )
        return f"PwFn[{pts}]"

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def constant(k: Rat, lo: Rat = ZERO, hi: Rat = ONE) -> "PwFn":
        k = ensure_unit(k, "constant value")
        lo, hi = (ensure_unit(v, "domain endpoint") for v in (lo, hi))
        if lo >= hi:
            raise DomainError("breakpoint positions must be strictly increasing")
        return _canon([Breakpoint(lo, k, k, k), Breakpoint(hi, k, k, k)], [const_piece(k)])

    @staticmethod
    def upper_profile(lo: Rat, piece: LinFrac, x0: Rat) -> "PwFn":
        """The identity on [0, lo), the affine ``piece`` on [lo, x0) and 1 on
        [x0, 1], for 0 <= lo < x0 <= 1: the shape of a principal upper set.
        An affine piece is monotone, so its two end values are the only ones
        checked, not every value as by pwfn()."""
        if not (ZERO <= lo < x0 <= ONE and piece.is_affine):
            raise DomainError("an upper profile needs 0 <= lo < x0 <= 1 and an affine piece")
        a, b = (ensure_unit(piece(x), "profile value") for x in (lo, x0))
        pts = [Breakpoint(ZERO, ZERO, ZERO, ZERO)] if lo > 0 else []
        pcs = [affine_piece(ONE, ZERO)] if lo > 0 else []
        pts += [Breakpoint(lo, lo if lo > 0 else a, a, a), Breakpoint(x0, b, ONE, ONE)]
        pcs.append(piece)
        if x0 < ONE:
            pts.append(Breakpoint(ONE, ONE, ONE, ONE))
            pcs.append(const_piece(ONE))
        return _canon(pts, pcs)

    @staticmethod
    def identity() -> "PwFn":
        return pwfn(
            [Breakpoint(ZERO, ZERO, ZERO, ZERO), Breakpoint(ONE, ONE, ONE, ONE)],
            [affine_piece(ONE, ZERO)],
        )

    @staticmethod
    def from_points(points: Sequence[tuple[Rat, Rat]]) -> "PwFn":
        """Continuous piecewise-linear interpolation through (x, y) pairs."""
        bps = []
        for x, y in points:
            y = ensure_unit(y, "point value")
            bps.append(Breakpoint(ensure_unit(x, "point"), y, y, y))
        return pwfn(bps)

    # -- evaluation ----------------------------------------------------------

    def eval(self, x: Rat, side: Side = "at") -> Rat:
        if side not in _SIDES:
            raise DomainError(f"unknown side {side!r}")
        ensure_unit(x, "point")
        if not self.lo <= x <= self.hi:
            raise DomainError(
                f"point {fmt_rat(x)} outside domain [{fmt_rat(self.lo)}, {fmt_rat(self.hi)}]"
            )
        if side == "below" and x == self.lo:
            raise DomainError("no limit from below at the left endpoint")
        if side == "above" and x == self.hi:
            raise DomainError("no limit from above at the right endpoint")
        xs = self._xs
        i = bisect.bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            bp = self.breakpoints[i]
            return {"below": bp.left, "at": bp.at, "above": bp.right}[side]
        return self.pieces[i - 1](x)

    def __call__(self, x: Rat) -> Rat:
        return self.eval(x, "at")

    # -- extrema -------------------------------------------------------------

    def global_sup(self) -> SupResult:
        """Exact supremum over the domain, one-sided limits included: the
        largest breakpoint value or piece limit, attained when it is a
        breakpoint's value or the value of a constant piece."""
        bps = self.breakpoints
        limits = [(u.right, v.left) for u, v in zip(bps, bps[1:])]
        best = max(*(bp.at for bp in bps), *map(max, limits))
        return SupResult(best, any(bp.at == best for bp in bps) or (best, best) in limits)

    # -- monotonicity ---------------------------------------------------------

    def monotone_violation(self, direction: str) -> Optional[tuple[Rat, Rat]]:
        """A real pair a < b breaking global monotonicity, or None.

        ``direction`` is ``"decreasing"`` or ``"increasing"``.  A piece is
        monotone or constant, so its slope keeps one sign on the whole gap.
        """
        if direction not in ("decreasing", "increasing"):
            raise DomainError(f"unknown direction {direction!r}")
        wrong = operator.lt if direction == "decreasing" else operator.gt
        falls = lambda piece, x: wrong(0, piece.slope(x))  # noqa: E731
        return law_violation(self, lambda a, ya, b, yb: wrong(ya, yb), falls, lambda piece: True)

    # -- structural surgery ---------------------------------------------------

    def refine(self, positions: Iterable[Rat]) -> "PwFn":
        """Insert breakpoints at the given interior positions, exact points of
        [0,1] (no-op at the others)."""
        cuts = {p for p in positions if self.lo < ensure_unit(p, "breakpoint position") < self.hi}
        extra = sorted(cuts - set(self._xs))
        if not extra:
            return self
        bps = [self.breakpoints[0]]
        pcs: list[LinFrac] = []
        j = 0
        for piece, nxt in zip(self.pieces, self.breakpoints[1:]):
            while j < len(extra) and extra[j] < nxt.x:
                val = piece(extra[j])
                bps.append(Breakpoint(extra[j], val, val, val))
                pcs.append(piece)
                j += 1
            bps.append(nxt)
            pcs.append(piece)
        return PwFn(tuple(bps), tuple(pcs))

    def restrict(self, lo: Rat, hi: Rat) -> "PwFn":
        """The restriction to [lo, hi] as a PwFn on that domain (self when
        that is already its domain)."""
        lo, hi = (ensure_unit(v, "restriction bound") for v in (lo, hi))
        if (lo, hi) == (self.lo, self.hi):
            return self
        if not (self.lo <= lo < hi <= self.hi):
            raise DomainError("restriction window not inside the domain")
        xs, bps = self._xs, self.breakpoints
        i, j = bisect.bisect_right(xs, lo), bisect.bisect_left(xs, hi)  # xs[i:j] inside
        pcs = list(self.pieces[i - 1 : j])
        a, b = pcs[0](lo), pcs[-1](hi)
        at_lo, at_hi = bps[i - 1].at if xs[i - 1] == lo else a, bps[j].at if xs[j] == hi else b
        ends = Breakpoint(lo, at_lo, at_lo, a), Breakpoint(hi, b, at_hi, at_hi)
        return _canon([ends[0], *bps[i:j], ends[1]], pcs)


# ---------------------------------------------------------------------------
# factory / validation


def pwfn(
    points: Sequence[Breakpoint], pieces: Optional[Sequence[LinFrac]] = None
) -> PwFn:
    """Validate and canonicalize a breakpoint list into a PwFn.

    Without explicit pieces, gaps interpolate affinely from (x_i, right_i)
    to (x_{i+1}, left_{i+1}).
    """
    if len(points) < 2:
        raise DomainError("a PwFn needs at least the two domain endpoints")
    xs = [ensure_unit(bp.x, "breakpoint position") for bp in points]
    for u, v in zip(xs, xs[1:]):
        if u >= v:
            raise DomainError("breakpoint positions must be strictly increasing")
    pts, last = [], len(xs) - 1
    for i, (x, bp) in enumerate(zip(xs, points)):
        # an end's outer limit is its own value
        vals = (bp.at if i == 0 else bp.left, bp.at, bp.at if i == last else bp.right)
        try:
            pts.append(Breakpoint(x, *map(ensure_unit, vals)))
        except DomainError:  # the message names the position only on failure
            for v in vals:
                ensure_unit(v, f"value at {fmt_rat(x)}")

    if pieces is None:
        pcs = []
        for a, b in zip(pts, pts[1:]):
            if a.right == b.left:
                pcs.append(const_piece(a.right))
            else:
                pcs.append(chord(a.x, a.right, b.x, b.left))
    else:
        pcs = list(pieces)
        if len(pcs) != len(pts) - 1:
            raise DomainError("piece count must be breakpoint count - 1")
        for i, piece in enumerate(pcs):
            u, v = pts[i], pts[i + 1]
            pole = piece.pole()
            if pole is not None and u.x <= pole <= v.x:
                raise DomainError("piece pole inside its gap")
            if piece(u.x) != u.right or piece(v.x) != v.left:
                raise DomainError(
                    f"piece on ({fmt_rat(u.x)}, {fmt_rat(v.x)}) disagrees with"
                    " its one-sided endpoint values"
                )
    return _canon(pts, pcs)


def _canon(pts: list[Breakpoint], pcs: list[LinFrac]) -> PwFn:
    """The PwFn of valid breakpoints and pieces, with every breakpoint that
    neither jumps nor changes the piece merged away.  Constants, upper
    profiles, slices, level caps and min/max of validated functions, valid
    by construction, skip pwfn() for it."""
    for i in range(len(pts) - 2, 0, -1):  # right to left: no index left to visit moves
        bp = pts[i]
        if bp.left == bp.at == bp.right and pcs[i - 1] == pcs[i]:
            del pts[i], pcs[i]
    return PwFn(tuple(pts), tuple(pcs))


# ---------------------------------------------------------------------------
# pointwise lattice operations


def merged(f: PwFn, g: PwFn) -> tuple[list, list]:
    """f and g, which share a domain, in one pass over the union of their
    breakpoints that builds no PwFn: one (f, g) pair of breakpoints per
    position and one (f, g) pair of pieces per gap, which runs from the
    ``right`` limits of one position to the ``left`` limits of the next."""
    fb, gb, fp, gp = f.breakpoints, g.breakpoints, f.pieces, g.pieces
    points, gaps, i, j = [(fb[0], gb[0])], [], 1, 1
    while i < len(fb):  # both end at the domain's end: i and j reach it together
        a, b, p, q = fb[i], gb[j], fp[i - 1], gp[j - 1]
        gaps.append((p, q))
        x = min(a.x, b.x)
        i, j = i + (a.x == x), j + (b.x == x)
        # a function that does not break at x carries its piece value there
        a = a if a.x == x else Breakpoint(x, *(p(x),) * 3)
        b = b if b.x == x else Breakpoint(x, *(q(x),) * 3)
        points.append((a, b))
    return points, gaps


def kept_sign(fu: Rat, fv: Rat, gu: Rat, gv: Rat) -> Optional[int]:
    """The sign f - g keeps inside a gap if the pieces' end values show one,
    else None.  Each piece is monotone or constant, so unless they move the
    same way f - g is monotone: it keeps the sign its ends share (0: f == g)."""
    su, sv = (fu > gu) - (fu < gu), (fv > gv) - (fv < gv)
    same_way = ((fu < fv) - (fu > fv)) * ((gu < gv) - (gu > gv)) > 0
    return None if su * sv < 0 or same_way else su or sv


def pointwise_min(f: PwFn, g: PwFn) -> PwFn:
    """min(f, g) on their common domain.  Raises :class:`ExactnessError` only
    when two non-constant operands cross at an irrational point."""
    return _pointwise(f, g, min)


def pointwise_max(f: PwFn, g: PwFn) -> PwFn:
    """max(f, g); refuses exactly as :func:`pointwise_min` does."""
    return _pointwise(f, g, max)


def _with_level(f: PwFn, k: Rat, pick: Callable) -> PwFn:
    """pick(f, k) in one pass.  A piece is monotone on its gap, so it meets k
    at most once, at the rational root :func:`_solve_eq`."""
    flat = const_piece(k)
    bps = [
        Breakpoint(bp.x, pick(bp.left, k), pick(bp.at, k), pick(bp.right, k))
        for bp in f.breakpoints
    ]
    out, pcs = [bps[0]], []
    for piece, u, v, pu, pv in zip(f.pieces, f.breakpoints, f.breakpoints[1:], bps, bps[1:]):
        keep_l, keep_r = pu.right == u.right, pv.left == v.left
        if keep_l and keep_r:
            pcs.append(piece)
        elif keep_l == keep_r or k in (u.right, v.left):
            pcs.append(flat)
        else:  # the limits lie strictly on opposite sides of k
            out.append(Breakpoint(_solve_eq(piece, k), k, k, k))
            pcs += [piece, flat] if keep_l else [flat, piece]
        out.append(pv)
    return _canon(out, pcs)


def _pointwise(f: PwFn, g: PwFn, pick: Callable) -> PwFn:
    if (f.lo, f.hi) != (g.lo, g.hi):
        raise DomainError("pointwise operations need matching domains")
    for h, other in ((g, f), (f, g)):
        k = h.breakpoints[0].at  # h is constant: one piece k, no jump at an end
        if h.pieces == (const_piece(k),) and h.breakpoints[-1].at == k:
            return _with_level(other, k, pick)
    points, gaps = merged(f, g)
    bps, pcs = [], []
    for k, (a, b) in enumerate(points):
        bps.append(Breakpoint(a.x, pick(a.left, b.left), pick(a.at, b.at), pick(a.right, b.right)))
        if k == len(gaps):
            break
        (fp, gp), (c, d) = gaps[k], points[k + 1]
        sign = kept_sign(a.right, c.left, b.right, d.left)
        if sign is not None:  # 0: f == g on the gap
            pcs.append(fp if pick(sign, 0) == sign else gp)
            continue
        xs = [a.x, *crossings(fp, gp, a.x, c.x), c.x]
        for u, v in zip(xs, xs[1:]):  # one sign inside: probe past a touch point
            t = next((t for t in gap_probes(u, v) if fp(t) != gp(t)), None)
            pcs.append(fp if t is None or pick(fp(t), gp(t)) == fp(t) else gp)
            if v != c.x:
                bps.append(Breakpoint(v, *(fp(v),) * 3))
    return _canon(bps, pcs)

