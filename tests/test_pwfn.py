import importlib
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflat import GODEL, Breakpoint, DomainError, ExactnessError, PwFn, SupResult, make_tnorm, pwfn
from qflat._sup import sup_ratfunc
from qflat.ideal import _separating_pair, witness_upper_pair
from qflat.oracle import (
    flat_candidates,
    mutated_flat,
    random_lower,
    random_pwfn,
    random_rat,
    random_tnorm,
    random_upper,
)
from qflat.order import check_lower_set, principal_lower, principal_upper, restricted_cap, tensor
from qflat.pwfn import (
    LinFrac,
    _with_level,
    affine_piece,
    const_piece,
    crossings,
    gap_probes,
    linfrac,
    merged,
    pointwise_max,
    pointwise_min,
)
from qflat.specfile import parse_pwfn_body, print_pwfn
from qflat.tnorms import SummandKind

from conftest import equal_points, tnorm_over_997

rats = st.fractions(min_value=0, max_value=1, max_denominator=12)


def jump_fn():
    # 1 up to 1/2 (value 1 at the point), 1/2 afterwards
    return pwfn(
        [
            Breakpoint(F(0), F(1), F(1), F(1)),
            Breakpoint(F(1, 2), F(1), F(1), F(1, 2)),
            Breakpoint(F(1), F(1, 2), F(1, 2), F(1, 2)),
        ]
    )


class TestEval:
    def test_identity_midpoint(self):
        assert PwFn.identity().eval(F(1, 2)) == F(1, 2)

    def test_jump_sides(self):
        f = jump_fn()
        assert f.eval(F(1, 2), "below") == 1
        assert f.eval(F(1, 2), "at") == 1
        assert f.eval(F(1, 2), "above") == F(1, 2)

    def test_constant_at_zero(self):
        assert PwFn.constant(F(1)).eval(F(0)) == 1

    def test_errors(self):
        f = PwFn.identity()
        with pytest.raises(DomainError):
            f.eval(F(3, 2))
        with pytest.raises(DomainError):
            f.eval(F(0), "below")
        with pytest.raises(DomainError):
            f.eval(F(1), "above")

    @given(rats)
    def test_sides_agree_inside_pieces(self, x):
        f = jump_fn()
        if x in (F(0), F(1, 2), F(1)):
            return
        assert f.eval(x, "below") == f.eval(x, "at") == f.eval(x, "above")


class TestPointwise:
    def test_min_identity_const(self):
        m = pointwise_min(PwFn.identity(), PwFn.constant(F(1, 2)))
        assert m.eval(F(1, 4)) == F(1, 4)
        assert m.eval(F(3, 4)) == F(1, 2)
        assert any(bp.x == F(1, 2) for bp in m.breakpoints)

    def test_min_idempotent(self):
        f = jump_fn()
        assert pointwise_min(f, f) == f

    def test_min_bottom_absorbs(self):
        z = PwFn.constant(F(0))
        assert pointwise_min(z, jump_fn()) == z

    def test_min_matches_pointwise_on_random_rationals(self):
        rng = random.Random(5)
        f = jump_fn()
        g = pointwise_max(PwFn.identity(), PwFn.constant(F(1, 3)))
        m = pointwise_min(f, g)
        for _ in range(1000):
            x = F(rng.randint(0, 840), 840)
            assert m.eval(x) == min(f.eval(x), g.eval(x))

    @given(rats, rats, rats)
    @settings(max_examples=40)
    def test_max_of_lines(self, a, b, x):
        f = PwFn.constant(a)
        g = pointwise_max(PwFn.identity(), PwFn.constant(b))
        h = pointwise_max(f, g)
        assert h.eval(x) == max(a, x, b)

    def test_crossing_non_constant_operands(self):
        # two non-constant operands take the general route and cross inside a gap
        down = PwFn.from_points([(F(0), F(1)), (F(1), F(0))])
        tent = PwFn.from_points([(F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(0))])
        assert pointwise_min(PwFn.identity(), down) == tent
        assert pointwise_max(down, PwFn.identity()) == PwFn.from_points(
            [(F(0), F(1)), (F(1, 2), F(1, 2)), (F(1), F(1))]
        )
        T = make_tnorm([(F(0), F(1), SummandKind.PRODUCT)])
        m = pointwise_min(principal_lower(T, F(1, 4)), PwFn.identity())
        assert F(1, 2) in m.positions() and m.eval(F(1, 2)) == F(1, 2)


def general_pointwise(f, g, pick):
    """Pointwise min/max by the general route: refine both operands at every
    breakpoint and crossing, then probe each gap for the piece to keep."""
    common = set(f.positions()) | set(g.positions())
    f1, g1 = f.refine(common), g.refine(common)
    xs = f1.positions()
    cross = set()
    for p, q, u, v in zip(f1.pieces, g1.pieces, xs, xs[1:]):
        cross.update(crossings(p, q, u, v))
    f1, g1 = f1.refine(cross), g1.refine(cross)
    xs = f1.positions()
    bps = [
        Breakpoint(a.x, pick(a.left, b.left), pick(a.at, b.at), pick(a.right, b.right))
        for a, b in zip(f1.breakpoints, g1.breakpoints)
    ]
    pcs = []
    for p, q, u, v in zip(f1.pieces, g1.pieces, xs, xs[1:]):
        t = next((t for t in gap_probes(u, v) if p(t) != q(t)), None)
        pcs.append(p if t is None or pick(p(t), q(t)) == p(t) else q)
    return pwfn(bps, pcs)


def constant_operand_cases(seeds):
    """(f, k) pairs over seeded populations and their frame windows, k drawn
    at random and from the breakpoint values of f."""
    for seed in seeds:
        rng = random.Random(seed)
        T = random_tnorm(rng)
        fs = [random_lower(T, rng), random_upper(T, rng), random_pwfn(rng)]
        fs += flat_candidates(T, rng, 2)
        fs += [g for g in (mutated_flat(T, rng, "F3"),) if g is not None]
        fs += [f.restrict(s.lo, s.hi) for s in T.summands for f in fs[:2]]
        for f in fs:
            values = {v for bp in f.breakpoints for v in (bp.left, bp.at, bp.right)}
            ks = {random_rat(rng), f.hi} | set(rng.sample(sorted(values), min(3, len(values))))
            for k in sorted(ks):
                yield f, k


class TestConstantOperand:
    def test_matches_the_general_route(self):
        seen = {"crossing": 0, "jump at k": 0, "piece ends at k": 0}
        for f, k in constant_operand_cases(range(40)):
            const = PwFn.constant(k, f.lo, f.hi)
            for pick, op in ((min, pointwise_min), (max, pointwise_max)):
                assert op(f, const) == general_pointwise(f, const, pick)
                assert op(const, f) == general_pointwise(const, f, pick)
            for p, u, v in zip(f.pieces, f.breakpoints, f.breakpoints[1:]):
                if (u.right - k) * (v.left - k) < 0:
                    seen["crossing"] += 1
                elif not p.is_const and k in (u.right, v.left):
                    seen["piece ends at k"] += 1
            seen["jump at k"] += sum(
                k in (bp.left, bp.at, bp.right) and len({bp.left, bp.at, bp.right}) > 1
                for bp in f.breakpoints
            )
        assert min(seen.values()) > 0, seen

    def test_never_refuses(self):
        # the chord 5/6 - x/2 on a product frame meets a frame principal at an
        # irrational point; the F3 mutant, pasted from principal pieces, does not
        T = make_tnorm([(F(0), F(5, 6), SummandKind.PRODUCT)])
        tail = [Breakpoint(x, F(5, 12), F(5, 12), F(5, 12)) for x in (F(5, 6), F(1))]
        chord = pwfn([Breakpoint(F(0), F(1), F(1), F(5, 6))] + tail)
        principal = principal_lower(T, F(1, 24))
        with pytest.raises(ExactnessError):
            pointwise_min(principal, chord)
        mutant = mutated_flat(T, random.Random(0), "F3")
        for op in (pointwise_min, pointwise_max):
            op(principal, mutant)
        rng = random.Random(7)
        fs = [chord, mutant] + [random_pwfn(rng) for _ in range(30)]
        for seed in range(30):
            T = random_tnorm(random.Random(seed))
            fs += [g for g in (mutated_flat(T, rng, "F3"),) if g is not None]
        for f in fs:
            for k in {random_rat(rng)} | {bp.at for bp in f.breakpoints}:
                for op in (pointwise_min, pointwise_max):
                    op(f, PwFn.constant(k))
                    op(PwFn.constant(k), f)

    def test_callers_skip_the_general_route(self, monkeypatch):
        rng = random.Random(13)
        families = []
        for _ in range(12):
            T = random_tnorm(rng)
            families.append((T, random_lower(T, rng), random_rat(rng)))

        def general_route(*args):
            raise AssertionError("constant operand sent through the general route")

        monkeypatch.setattr(importlib.import_module("qflat.pwfn"), "crossings", general_route)
        for T, phi, c in families:
            for s in T.summands:
                restricted_cap(phi, s)
            _separating_pair(T, phi, c, *witness_upper_pair(T, phi, c))
            pointwise_min(PwFn.constant(phi.eval(c)), principal_upper(T, c))


def non_constant_pairs(seed):
    """Pairs of non-constant functions on a common domain: seeded lower,
    upper and arbitrary functions, flats, F2/F3 mutants and principals, and
    their restrictions to each summand frame."""
    rng = random.Random(seed)
    T = (random_tnorm, tnorm_over_997)[seed % 2](rng)
    fs = [random_lower(T, rng), random_upper(T, rng), random_pwfn(rng), random_pwfn(rng)]
    fs += flat_candidates(T, rng, 2)
    fs += [g for g in (mutated_flat(T, rng, rule) for rule in ("F2", "F3")) if g is not None]
    fs += [principal_lower(T, random_rat(rng)), principal_upper(T, random_rat(rng))]
    groups = [fs] + [[f.restrict(s.lo, s.hi) for f in fs[:4]] for s in T.summands]
    for group in groups:
        group = [f for f in group if len(f.pieces) > 1 or not f.pieces[0].is_const]
        yield from ((f, g) for i, f in enumerate(group) for g in group[:i])


def test_general_route_matches_the_refined_route(monkeypatch):
    """min and max of two non-constant operands, in both orders, are the
    PwFn the route that refines both operands builds, and refuse exactly
    when it does; some gaps skip the crossing search and some find one."""
    pw = importlib.import_module("qflat.pwfn")
    searches = []
    monkeypatch.setattr(pw, "crossings", lambda *a: searches.append(crossings(*a)) or searches[-1])
    # x and (2x - 2/9)/(x + 1) rise together on [1/9, 1] and cross at 1/3
    # and 2/3: the same sign at both ends does not rule crossings out
    x = PwFn.from_points([(F(1, 9), F(1, 9)), (F(1), F(1))])
    ends = [Breakpoint(F(1, 9), F(0), F(0), F(0)), Breakpoint(F(1), F(8, 9), F(8, 9), F(8, 9))]
    rising = pwfn(ends, [linfrac(F(2), F(-2, 9), F(1), F(1))])
    pairs = [(x, rising)] + [pair for seed in range(12) for pair in non_constant_pairs(seed)]
    seen = Counter()
    for f, g in pairs:
        for a, b in ((f, g), (g, f)):
            for pick, op in ((min, pointwise_min), (max, pointwise_max)):
                searches.clear()
                try:
                    want = general_pointwise(a, b, pick)
                except ExactnessError:
                    with pytest.raises(ExactnessError):
                        op(a, b)
                    seen["refusal"] += 1
                    continue
                assert op(a, b) == want, (a, b, pick)
                seen["skip"] += len(merged(a, b)[1]) - len(searches)
                seen["search"] += len(searches)
                seen["crossing"] += sum(map(bool, searches))
    assert len(seen) == 4 and min(seen.values()) > 0, seen


def test_callers_refine_nothing(monkeypatch):
    """tensor, the separation test and min/max of non-constant operands work
    on one merged pass of their operands and refine neither."""
    rng = random.Random(17)
    families = []
    for _ in range(12):
        T = random_tnorm(rng)
        families.append((T, random_lower(T, rng), random_upper(T, rng), random_rat(rng)))

    def refine(*args):
        raise AssertionError("an operand was refined")

    monkeypatch.setattr(PwFn, "refine", refine)
    for T, phi, psi, c in families:
        tensor(T, phi, psi)
        _separating_pair(T, phi, c, psi, principal_upper(T, c))
        for op in (pointwise_min, pointwise_max):
            op(phi, principal_upper(T, c))


def trusted_outputs(draw, seed):
    """(T, f, result, reference) for every restrict, _with_level and
    restricted_cap call made on a seeded family's functions: summand frames
    and a random window, each capped and floored at its ends, a random
    level and one of its own values.  The reference gives the value the
    result must take at each point of its domain."""
    rng = random.Random(seed)
    T = draw(rng)
    fs = [random_lower(T, rng), random_upper(T, rng), random_pwfn(rng)]
    fs += flat_candidates(T, rng, 2)
    fs += [g for g in (mutated_flat(T, rng, rule) for rule in ("F2", "F3")) if g is not None]
    for f in fs:
        window = tuple(sorted(F(v, 24) for v in rng.sample(range(25), 2)))
        for lo, hi in {(s.lo, s.hi) for s in T.summands} | {window}:
            r = f.restrict(lo, hi)
            yield T, f, r, f.eval
            for g in (f, r):
                values = sorted({v for bp in g.breakpoints for v in (bp.left, bp.at, bp.right)})
                for k in {lo, hi, random_rat(rng), rng.choice(values)}:
                    for pick in (min, max):
                        yield T, g, _with_level(g, k, pick), lambda x, g=g, k=k, p=pick: p(g(x), k)
        for s in T.summands:
            yield T, f, restricted_cap(f, s), lambda x, f=f, s=s: min(f(x), s.hi)


@pytest.mark.parametrize("draw", [random_tnorm, tnorm_over_997], ids=lambda d: d.__name__)
def test_trusted_output_is_valid_canonical_and_right(draw):
    """restrict and _with_level build their results without pwfn(): each one
    must already be what pwfn() makes of its breakpoints and pieces, and take
    the reference value at every breakpoint and at three points of every gap
    (two pieces agreeing at three points of a gap agree on all of it)."""
    seen = Counter()
    for seed in range(15):
        for T, f, r, ref in trusted_outputs(draw, seed):
            assert r == pwfn(r.breakpoints, r.pieces), (T.describe(), f, r)
            xs = r.positions()
            probes = {t for u, v in zip(xs, xs[1:]) for t in gap_probes(u, v)}
            inner = {x for x in f.positions() if r.lo <= x <= r.hi}
            for x in inner | set(xs) | probes:
                assert r(x) == ref(x), (T.describe(), f, r, x)
            seen["glued summands"] += any(a.hi == b.lo for a, b in zip(T.summands, T.summands[1:]))
            seen["fractional piece"] += any(not p.is_affine for p in r.pieces)
            if (r.lo, r.hi) == (f.lo, f.hi):
                seen["crossing split at the level"] += len(xs) > len(f.breakpoints)
                seen["breakpoint merged away"] += len(xs) < len(f.breakpoints)
    assert len(seen) == 4 and min(seen.values()) > 0, seen


class TestGlobalSup:
    def test_constant(self):
        assert PwFn.constant(F(3, 4)).global_sup() == (F(3, 4), True)

    def test_open_end_sup(self):
        # x on [0,1) with a drop to 0 at 1: sup 1 only as a limit
        f = pwfn(
            [
                Breakpoint(F(0), F(0), F(0), F(0)),
                Breakpoint(F(1), F(1), F(0), F(0)),
            ]
        )
        assert f.global_sup() == (F(1), False)

    def test_jump_fn_attained(self):
        assert jump_fn().global_sup() == (F(1), True)

    def test_sup_of_max_is_max_of_sups(self):
        rng = random.Random(11)
        for _ in range(60):
            f = _random_fn(rng)
            g = _random_fn(rng)
            sf, sg = f.global_sup(), g.global_sup()
            sm = pointwise_max(f, g).global_sup()
            assert sm.value == max(sf.value, sg.value)
            achieving = []
            if sf.value == sm.value:
                achieving.append(sf.attained)
            if sg.value == sm.value:
                achieving.append(sg.attained)
            assert sm.attained == any(achieving)


def _random_fn(rng) -> PwFn:
    xs = sorted({F(0), F(1)} | {F(rng.randint(0, 16), 16) for k in range(rng.randint(0, 3))})
    bps = []
    for x in xs:
        if rng.random() < 0.3:
            vals = [F(rng.randint(0, 12), 12) for _ in range(3)]
        else:
            vals = [F(rng.randint(0, 12), 12)] * 3
        bps.append(Breakpoint(x, *vals))
    return pwfn(bps)


class TestMonotone:
    def test_constant_both_ways(self):
        c = PwFn.constant(F(1, 2))
        assert c.monotone_violation("decreasing") is None
        assert c.monotone_violation("increasing") is None

    def test_identity_not_decreasing(self):
        f = PwFn.identity()
        a, b = f.monotone_violation("decreasing")
        assert a < b and f.eval(a) < f.eval(b)

    def test_jump_fn_decreasing(self):
        assert jump_fn().monotone_violation("decreasing") is None

    def test_jump_violations_have_real_pairs(self):
        f = pwfn(
            [
                Breakpoint(F(0), F(1, 2), F(1, 2), F(1, 2)),
                Breakpoint(F(1, 2), F(1, 2), F(3, 4), F(1, 2)),
                Breakpoint(F(1), F(1, 2), F(1, 2), F(1, 2)),
            ]
        )
        a, b = f.monotone_violation("decreasing")
        assert f.eval(a) < f.eval(b) and a < b

    def test_unknown_direction_is_a_domain_error(self):
        with pytest.raises(DomainError):
            PwFn.identity().monotone_violation("sideways")


class TestPieces:
    def test_rank_one_reduces_to_constant(self):
        p = linfrac(F(2), F(2), F(1), F(1))  # (2x+2)/(x+1) = 2 -> constant
        assert p.is_const and p(F(1, 3)) == 2

    def test_crossings_of_lines(self):
        a = affine_piece(F(1), F(0))
        b = const_piece(F(1, 2))
        assert crossings(a, b, F(0), F(1)) == [F(1, 2)]

    def test_equal_points_reports_touch(self):
        # (x - 1/2)^2 touch: line y = x vs parabola-like via two lines is not
        # expressible; use two crossing lines and a tangent constant instead
        a = affine_piece(F(2), F(0))
        b = const_piece(F(1, 2))
        assert equal_points(a, b, F(0), F(1)) == [F(1, 4)]

    def test_tangent_touch_is_equal_point_not_crossing(self):
        # x and 1/(4(1-x)) touch at 1/2: x - q(x) = -(2x - 1)^2 / (4(1 - x))
        p = affine_piece(F(1), F(0))
        q = LinFrac(F(0), F(-1, 4), F(1), F(-1))
        assert equal_points(p, q, F(0), F(9, 10)) == [F(1, 2)]
        assert crossings(p, q, F(0), F(9, 10)) == []


class TestSupRatfunc:
    def test_irrational_minimum_inside_is_harmless(self):
        # (x^2+1)/(x+1): local minimum at sqrt(2)-1 inside, maximum at
        # -1-sqrt(2) outside, so the supremum is the endpoint value 1
        num, den = (F(1), F(0), F(1)), (F(1), F(1))
        assert sup_ratfunc(num, den, F(0), F(1)) == SupResult(F(1), False)

    def test_irrational_maximum_inside_is_refused(self):
        num, den = (F(-1), F(0), F(-1)), (F(1), F(1))
        with pytest.raises(ExactnessError):
            sup_ratfunc(num, den, F(0), F(1))


class TestTextFormat:
    def test_round_trip_canonical(self):
        f = jump_fn()
        text = print_pwfn(f, "phi")
        lines = text.splitlines()
        assert lines[0] == "fn phi"
        again = parse_pwfn_body("phi", lines[1:])
        assert again == f

    def test_parse_shorthand(self):
        f = parse_pwfn_body("g", ["point 0 : 1", "point 1 : 0"])
        assert f.eval(F(1, 2)) == F(1, 2)

    def test_decimal_literals(self):
        f = parse_pwfn_body("g", ["point 0 : 0.3", "point 1 : 0.3"])
        assert f.eval(F(1, 2)) == F(3, 10)

    def test_print_rejects_fractional_pieces(self):
        from qflat import PRODUCT
        from qflat.order import principal_lower

        f = principal_lower(PRODUCT, F(1, 2))
        with pytest.raises(ValueError):
            print_pwfn(f, "p")

    def test_parse_errors(self):
        from qflat import ParseError

        with pytest.raises(ParseError):
            parse_pwfn_body("g", ["point 0 : 1"])
        with pytest.raises(ParseError):
            parse_pwfn_body("g", ["point 0 : 1 1", "pt 1 : 0"])


RAMP = [Breakpoint(F(0), F(0), F(0), F(0)), Breakpoint(F(1), F(1), F(1), F(1))]
HALF = PwFn.constant(F(1, 2), F(0), F(1, 2))  # lives on [0, 1/2]

INPUT_ERRORS = {
    "one-breakpoint": (
        lambda: pwfn(RAMP[:1]),
        "a PwFn needs at least the two domain endpoints",
    ),
    "piece-count": (
        lambda: pwfn(RAMP, [const_piece(F(0))] * 2),
        "piece count must be breakpoint count - 1",
    ),
    "pole": (
        lambda: pwfn(RAMP, [linfrac(F(0), F(1, 4), F(1), F(-1, 2))]),
        "piece pole inside its gap",
    ),
    "piece-limits": (
        lambda: pwfn(RAMP, [const_piece(F(1, 2))]),
        "piece on (0, 1) disagrees with its one-sided endpoint values",
    ),
    "min-domains": (
        lambda: pointwise_min(PwFn.identity(), HALF),
        "pointwise operations need matching domains",
    ),
    "restrict": (
        lambda: HALF.restrict(F(1, 4), F(3, 4)),
        "restriction window not inside the domain",
    ),
    "side": (lambda: PwFn.identity().eval(F(1, 2), "left"), "unknown side 'left'"),
    "float-position": (
        lambda: pwfn([Breakpoint(0, 1, 1, 1), Breakpoint(0.1, 1, 1, 1), Breakpoint(1, 0, 0, 0)]),
        "breakpoint position 0.1 is not an exact rational",
    ),
    "position-outside": (
        lambda: pwfn([Breakpoint(-1, 0, 0, 0), Breakpoint(2, 1, 1, 1)]),
        "breakpoint position -1 outside [0,1]",
    ),
}


class TestValidation:
    def test_positions_strictly_increasing(self):
        with pytest.raises(DomainError):
            pwfn([Breakpoint(F(0), F(0), F(0), F(0)), Breakpoint(F(0), F(1), F(1), F(1))])

    def test_values_in_unit_interval(self):
        with pytest.raises(DomainError):
            pwfn([Breakpoint(F(0), F(2), F(2), F(2)), Breakpoint(F(1), F(0), F(0), F(0))])

    def test_bad_value_names_its_position(self):
        with pytest.raises(DomainError, match=r"^value at 1/2 3/2 outside \[0,1\]$"):
            pwfn(
                [
                    Breakpoint(F(0), F(0), F(0), F(0)),
                    Breakpoint(F(1, 2), F(0), F(3, 2), F(0)),
                    Breakpoint(F(1), F(0), F(0), F(0)),
                ]
            )
        with pytest.raises(DomainError, match="^value at 1 0.5 is not an exact rational$"):
            pwfn([Breakpoint(F(0), F(0), F(0), F(0)), Breakpoint(F(1), 0.5, 0.5, 0.5)])

    @pytest.mark.parametrize("case", INPUT_ERRORS)
    def test_input_errors_name_their_fault(self, case):
        build, message = INPUT_ERRORS[case]
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == message

    def test_int_built_function_holds_only_fractions(self):
        f = pwfn([Breakpoint(0, 0, 0, 0), Breakpoint(F(1, 2), 0, 1, 1), Breakpoint(1, 1, 1, 1)])
        assert {type(v) for bp in f.breakpoints for v in (bp.x, bp.left, bp.at, bp.right)} == {F}
        report = check_lower_set(GODEL, f)
        assert report.rule == "L1"
        w = report.witness
        fields = (w.a, w.b, w.value_a, w.value_b, w.lhs, w.rhs)
        assert fields == (F(1, 2), F(1, 4), 1, 0, 1, 0)
        assert {type(v) for v in fields} == {F}

    def test_collinear_merge(self):
        f = pwfn(
            [
                Breakpoint(F(0), F(0), F(0), F(0)),
                Breakpoint(F(1, 2), F(1, 2), F(1, 2), F(1, 2)),
                Breakpoint(F(1), F(1), F(1), F(1)),
            ]
        )
        assert f == PwFn.identity()
        assert len(f.breakpoints) == 2
