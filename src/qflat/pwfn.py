"""Exact piecewise functions [0,1] -> [0,1] with first-class jumps.

A ``PwFn`` is a finite list of breakpoints, each carrying the limit from
below, the value at the point, and the limit from above.  Between
consecutive breakpoints the function is a single analytic piece with
rational coefficients: affine by default, or a linear-fractional segment
``(a*x + b)/(c*x + d)``.  The fractional pieces exist because residuated
implications of product-kind summands are exactly of that shape; they are
closed under every operation in this package and all breakpoints stay
rational.

The text format (``fn`` / ``point`` stanzas) covers exactly the affine
fragment; fractional pieces arise only from constructions, never from
parsing.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from ._sup import SupResult, quad_roots
from .rat import (
    ONE,
    ZERO,
    DomainError,
    ExactnessError,
    ParseError,
    Rat,
    ensure_unit,
    fmt_rat,
    parse_rat,
)

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

    def deriv_sign(self) -> int:
        det = self.a * self.d - self.b * self.c
        return (det > 0) - (det < 0)


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
    """Three distinct points of (u, v).  Two pieces that differ somewhere on
    the gap agree at two points at most, so they differ at one of these."""
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
        k = Rat(ensure_unit(k, "constant value"))
        lo, hi = (Rat(ensure_unit(v, "domain endpoint")) for v in (lo, hi))
        return pwfn([Breakpoint(lo, k, k, k), Breakpoint(hi, k, k, k)], [const_piece(k)])

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
            y = Rat(ensure_unit(y, "point value"))
            bps.append(Breakpoint(Rat(ensure_unit(x, "point")), y, y, y))
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
        """Exact supremum over the domain, one-sided limits included."""
        return self._extreme(max)

    def global_inf(self) -> SupResult:
        return self._extreme(min)

    def _extreme(self, pick: Callable) -> SupResult:
        best: Optional[Rat] = None
        attained = False
        for bp in self.breakpoints:
            if best is None or pick(bp.at, best) == bp.at != best:
                best, attained = bp.at, True
            elif bp.at == best:
                attained = True
        for i, piece in enumerate(self.pieces):
            lo_lim = self.breakpoints[i].right
            hi_lim = self.breakpoints[i + 1].left
            val = pick(lo_lim, hi_lim)
            reach = lo_lim == hi_lim  # constant piece: value attained inside
            assert best is not None
            if pick(val, best) == val != best:
                best, attained = val, reach
            elif val == best:
                attained = attained or reach
        assert best is not None
        return SupResult(best, attained)

    # -- monotonicity ---------------------------------------------------------

    def monotone_violation(self, direction: str) -> Optional[tuple[Rat, Rat]]:
        """A real pair a < b breaking global monotonicity, or None.

        ``direction`` is ``"decreasing"`` or ``"increasing"``.
        """
        if direction not in ("decreasing", "increasing"):
            raise DomainError(f"unknown direction {direction!r}")
        want = -1 if direction == "decreasing" else 1
        for i, piece in enumerate(self.pieces):
            s = piece.deriv_sign()
            if s != 0 and s != want:
                u, v = self.breakpoints[i].x, self.breakpoints[i + 1].x
                step = (v - u) / 4
                return u + step, v - step
        for i, bp in enumerate(self.breakpoints):
            # a pair straddling the jump violates the direction when the
            # nearby value sits on the wrong side of the point value
            if i > 0 and (bp.left - bp.at) * want > 0:
                piece = self.pieces[i - 1]
                a = halve_toward(
                    bp.x, self.breakpoints[i - 1].x, lambda t: (piece(t) - bp.at) * want > 0
                )
                return a, bp.x
            if i < len(self.breakpoints) - 1 and (bp.right - bp.at) * want < 0:
                piece = self.pieces[i]
                b = halve_toward(
                    bp.x, self.breakpoints[i + 1].x, lambda t: (piece(t) - bp.at) * want < 0
                )
                return bp.x, b
        return None

    # -- structural surgery ---------------------------------------------------

    def refine(self, positions: Iterable[Rat]) -> "PwFn":
        """Insert breakpoints at the given interior positions, exact points of
        [0,1] (no-op at the others)."""
        # no integer is interior, so every position kept is a Fraction
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
        lo, hi = (Rat(ensure_unit(v, "restriction bound")) for v in (lo, hi))
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
    pts = list(points)
    for i in range(1, len(pts)):
        if pts[i - 1].x >= pts[i].x:
            raise DomainError("breakpoint positions must be strictly increasing")
    first, last = pts[0], pts[-1]
    pts[0] = Breakpoint(first.x, first.at, first.at, first.right)
    pts[-1] = Breakpoint(last.x, last.left, last.at, last.at)
    for bp in pts:
        for v in (bp.left, bp.at, bp.right):
            try:
                ensure_unit(v)
            except DomainError:  # the message names the position only on failure
                ensure_unit(v, f"value at {fmt_rat(bp.x)}")

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
    neither jumps nor changes the piece merged away.  Only slices and
    level caps of validated functions skip :func:`pwfn` for it."""
    for i in range(len(pts) - 2, 0, -1):  # right to left: no index left to visit moves
        bp = pts[i]
        if bp.left == bp.at == bp.right and pcs[i - 1] == pcs[i]:
            del pts[i], pcs[i]
    return PwFn(tuple(pts), tuple(pcs))


# ---------------------------------------------------------------------------
# pointwise lattice operations


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
    common = sorted({bp.x for bp in f.breakpoints} | {bp.x for bp in g.breakpoints})
    f1, g1 = f.refine(common), g.refine(common)
    cross: set[Rat] = set()
    for i in range(len(f1.pieces)):
        u, v = f1.breakpoints[i].x, f1.breakpoints[i + 1].x
        cross.update(crossings(f1.pieces[i], g1.pieces[i], u, v))
    if cross:
        f1, g1 = f1.refine(cross), g1.refine(cross)
    bps = []
    for bf, bg in zip(f1.breakpoints, g1.breakpoints):
        bps.append(
            Breakpoint(
                bf.x, pick(bf.left, bg.left), pick(bf.at, bg.at), pick(bf.right, bg.right)
            )
        )
    pcs = []
    for i in range(len(f1.pieces)):
        u, v = f1.breakpoints[i].x, f1.breakpoints[i + 1].x
        # no sign change inside the refined gap; probe up to three points
        # to see past an isolated touch point
        chosen = f1.pieces[i]
        for t in gap_probes(u, v):
            fa, ga = f1.pieces[i](t), g1.pieces[i](t)
            if fa != ga:
                chosen = f1.pieces[i] if pick(fa, ga) == fa else g1.pieces[i]
                break
        pcs.append(chosen)
    return pwfn(bps, pcs)


# ---------------------------------------------------------------------------
# text format


def print_pwfn(f: PwFn, name: str) -> str:
    """Render in the ``fn`` stanza format (affine pieces only)."""
    for piece in f.pieces:
        if not piece.is_affine:
            raise ValueError(
                "function has a non-linear piece; the text format is"
                " piecewise-linear only"
            )
    lines = [f"fn {name}"]
    last = len(f.breakpoints) - 1
    for i, bp in enumerate(f.breakpoints):
        vals = []
        if i > 0:
            vals.append(fmt_rat(bp.left))
        vals.append(fmt_rat(bp.at))
        if i < last:
            vals.append(fmt_rat(bp.right))
        lines.append(f"point {fmt_rat(bp.x)} : {' '.join(vals)}")
    return "\n".join(lines) + "\n"


def parse_pwfn_body(name: str, lines: Sequence[str]) -> PwFn:
    """Parse the ``point`` lines of one ``fn`` stanza.

    Every fault, a bad literal or a value outside [0,1] included, is a
    :class:`ParseError` that names the stanza.
    """
    try:
        return pwfn(_point_rows(lines))
    except (DomainError, ParseError) as exc:
        raise ParseError(f"fn {name}: {exc}") from None


def _point_rows(lines: Sequence[str]) -> list[Breakpoint]:
    rows: list[tuple[Rat, list[Rat]]] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("point"):
            raise ParseError(f"unexpected line {line!r}")
        try:
            head, vals = line[len("point"):].split(":", 1)
        except ValueError:
            raise ParseError(f"missing ':' in {line!r}") from None
        x = ensure_unit(parse_rat(head), "breakpoint position")
        values = [ensure_unit(parse_rat(tok), "breakpoint value") for tok in vals.split()]
        if not 1 <= len(values) <= 3:
            raise ParseError(f"expected 1-3 values, got {len(values)}")
        rows.append((x, values))
    if len(rows) < 2:
        raise ParseError(f"needs at least points at both domain ends")
    rows.sort(key=lambda r: r[0])
    for (x, _), (y, _) in zip(rows, rows[1:]):
        if x == y:
            raise ParseError(f"duplicate point {fmt_rat(x)}")
    bps = []
    last = len(rows) - 1
    for i, (x, values) in enumerate(rows):
        expected = 3 - (i == 0) - (i == last)
        if len(values) == 1:
            left = at = right = values[0]
        elif len(values) == expected:
            if i == 0:
                at, right = values
                left = at
            elif i == last:
                left, at = values
                right = at
            else:
                left, at, right = values
        else:
            raise ParseError(
                f"point {fmt_rat(x)} expects {expected} values"
                f" (or 1), got {len(values)}"
            )
        bps.append(Breakpoint(x, left, at, right))
    return bps
