import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflat import GODEL, LUKASIEWICZ, PRODUCT, DomainError, ParseError, PwFn, make_tnorm
from qflat.ideal import restrict_ideal, witness_upper_pair
from qflat.order import principal_lower, principal_upper
from qflat.oracle import random_rat, random_tnorm
from qflat.rat import ONE, fmt_rat, parse_rat
from qflat.specfile import parse_tnorm_body, print_tnorm
from qflat.tnorms import Frame, Summand, SummandKind, builtin

from conftest import brute_residuum, grid, tnorm_over_997

rats = st.fractions(min_value=0, max_value=1, max_denominator=16)


class TestMakeTnorm:
    def test_empty_is_min(self):
        T = make_tnorm([])
        assert T.conj(F(3, 10), F(4, 5)) == F(3, 10)
        assert T.describe() == "min"

    def test_plain_lukasiewicz(self):
        assert LUKASIEWICZ.conj(F(7, 10), F(1, 2)) == F(1, 5)

    def test_two_summand_structure(self, t4):
        assert not t4.is_idempotent(F(3, 10))
        assert t4.is_idempotent(F(1, 2))
        assert t4.is_idempotent(F(1, 8))

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            make_tnorm([(F(0), F(1, 2), "product"), (F(1, 4), F(3, 4), "product")])

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            make_tnorm([(F(1, 2), F(1, 2), "product")])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_tnorm([Summand(F(0), F(1), "lukasiewicz")]),
            lambda: make_tnorm([(F(0), F(1), 5)]),
            lambda: make_tnorm([(F(0), F(1), "foo")]),
            lambda: make_tnorm([(F(0), F(1))]),
        ],
        ids=["kind_name_in_summand", "kind_int", "unknown_kind_name", "pair_row"],
    )
    def test_bad_kind_or_row_is_a_domain_error(self, build):
        # a kind that is not a SummandKind must not fall through to product
        with pytest.raises(DomainError):
            build()

    def test_touching_allowed(self):
        make_tnorm([(F(0), F(1, 2), "product"), (F(1, 2), F(1), "lukasiewicz")])


class TestClosedForms:
    def test_conj_examples(self, t4):
        assert PRODUCT.conj(F(1, 2), F(1, 2)) == F(1, 4)
        assert t4.conj(F(3, 10), F(2, 5)) == F(1, 4)
        assert t4.conj(F(3, 10), F(4, 5)) == F(3, 10)

    def test_residuum_examples(self, t4):
        assert LUKASIEWICZ.residuum(F(7, 10), F(1, 2)) == F(4, 5)
        assert PRODUCT.residuum(F(1, 2), F(1, 4)) == F(1, 2)
        assert GODEL.residuum(F(7, 10), F(1, 2)) == F(1, 2)
        assert t4.residuum(F(3, 4), F(3, 5)) == F(7, 10)
        assert t4.residuum(F(3, 5), F(3, 10)) == F(3, 10)

    def test_residuum_against_grid_sup(self, t4, families):
        # derived values confirmed by the definitional grid supremum
        pts = grid(40)
        for T in families:
            pts_T = sorted(set(pts) | set(T.idempotent_levels()))
            rng = random.Random(3)
            for _ in range(25):
                x, y = F(rng.randint(0, 40), 40), F(rng.randint(0, 40), 40)
                r = T.residuum(x, y)
                gm = brute_residuum(T, x, y, pts_T)
                assert gm <= r
                if r in pts_T:
                    assert gm == r

    def test_spot_values_from_brute_force(self, t4):
        pts = grid(20)
        assert brute_residuum(t4, F(3, 4), F(3, 5), pts) == F(7, 10)
        assert brute_residuum(t4, F(3, 5), F(3, 10), pts) == F(3, 10)


# The Fraction closed forms that conj and residuum computed before they moved
# to integers, kept here as the reference of the integer kernel.


def reference_summand(T, x, y):
    lo, hi = (x, y) if x <= y else (y, x)
    for s in T.summands:
        if s.lo <= lo and hi <= s.hi:
            return s
        if s.lo > lo:
            break
    return None


def reference_conj(T, x, y, seen):
    s = reference_summand(T, x, y)
    if s is None:
        seen["conj min"] += 1
        return min(x, y)
    if s.kind is SummandKind.LUKASIEWICZ:
        seen["conj floor" if x + y - s.hi <= s.lo else "conj lukasiewicz"] += 1
        return max(s.lo, x + y - s.hi)
    seen["conj product"] += 1
    return s.lo + (x - s.lo) * (y - s.lo) / (s.hi - s.lo)


def reference_residuum(T, x, y, seen):
    if x <= y:
        seen["residuum one"] += 1
        return ONE
    s = reference_summand(T, x, y)
    if s is None:
        seen["residuum min"] += 1
        return y
    if s.kind is SummandKind.LUKASIEWICZ:
        seen["residuum lukasiewicz"] += 1
        return s.hi - x + y
    seen["residuum product"] += 1
    return s.lo + (s.hi - s.lo) * (y - s.lo) / (x - s.lo)


def kernel_families():
    rng = random.Random(25)
    luk, prod = SummandKind.LUKASIEWICZ, SummandKind.PRODUCT
    # int endpoints: the floor and the min region must hand back the very
    # object the Fraction formulas returned, an int where they returned one
    ints = make_tnorm([Summand(0, F(1, 2), luk), Summand(F(1, 2), 1, prod)])
    touching = make_tnorm([(F(1, 5), F(2, 5), luk), (F(2, 5), F(3, 5), prod), (F(3, 5), F(4, 5), luk)])
    yield from (GODEL, LUKASIEWICZ, PRODUCT, ints, touching)
    for _ in range(40):
        yield random_tnorm(rng)
        yield tnorm_over_997(rng)


def kernel_arguments(T, rng):
    xs = {0, 1, F(0), F(1), F(1, 2)} | {random_rat(rng) for _ in range(4)}
    xs |= {F(rng.randint(0, 10**6), 10**6 + rng.randint(0, 9)) for _ in range(3)}
    for s in T.summands:
        xs |= {s.lo, s.hi, (s.lo + s.hi) / 2, (2 * s.lo + s.hi) / 3, s.lo + (s.hi - s.lo) / 997}
    return list(xs)


def test_integer_kernel_matches_the_fraction_formulas():
    """conj and residuum return what the Fraction closed forms return, of
    the same type, on every branch; the lookup returns the first summand
    whose closed square holds the pair, also where two closures touch."""
    rng = random.Random(7)
    seen = Counter()
    for T in kernel_families():
        xs = kernel_arguments(T, rng)
        for x in xs:
            for y in xs:
                for got, want in (
                    (T.conj(x, y), reference_conj(T, x, y, seen)),
                    (T.residuum(x, y), reference_residuum(T, x, y, seen)),
                    (T.summand_of_pair(x, y), reference_summand(T, x, y)),
                ):
                    assert got == want and type(got) is type(want), (T.describe(), x, y, got, want)
    # every branch runs often: a count at least half of what it is now
    floors = {
        "conj min": 10000, "conj lukasiewicz": 600, "conj floor": 1400, "conj product": 2000,
        "residuum one": 7500, "residuum min": 4900, "residuum lukasiewicz": 900, "residuum product": 900,
    }
    assert all(seen[branch] >= n for branch, n in floors.items()), seen


class TestAlgebraicLaws:
    @given(rats, rats)
    @settings(max_examples=60)
    def test_commutative(self, x, y):
        for T in (GODEL, LUKASIEWICZ, PRODUCT):
            assert T.conj(x, y) == T.conj(y, x)

    @given(rats, rats, rats)
    @settings(max_examples=60)
    def test_associative(self, x, y, z):
        for T in (LUKASIEWICZ, PRODUCT):
            assert T.conj(T.conj(x, y), z) == T.conj(x, T.conj(y, z))

    @given(rats, rats, rats)
    @settings(max_examples=60)
    def test_adjunction(self, x, y, z):
        for T in (GODEL, LUKASIEWICZ, PRODUCT):
            assert (T.conj(x, y) <= z) == (y <= T.residuum(x, z))

    @given(rats)
    def test_unit_and_annihilator(self, x):
        for T in (GODEL, LUKASIEWICZ, PRODUCT):
            assert T.conj(F(1), x) == x
            assert T.conj(F(0), x) == 0
            assert T.residuum(x, x) == 1
            assert T.residuum(F(1), x) == x

    def test_ordinal_sum_laws_on_grid(self, t4):
        pts = grid(12, t4.idempotent_levels())
        for x in pts:
            for y in pts:
                assert t4.conj(x, y) == t4.conj(y, x)
                assert t4.conj(F(1), x) == x
                for z in pts:
                    assert t4.conj(t4.conj(x, y), z) == t4.conj(x, t4.conj(y, z))
                    assert (t4.conj(x, y) <= z) == (y <= t4.residuum(x, z))

    def test_idempotent_sandwich(self, t4):
        pts = grid(16, t4.idempotent_levels())
        for c in pts:
            if not t4.is_idempotent(c):
                continue
            for x in pts:
                if x > c:
                    continue
                for y in pts:
                    if y < c:
                        continue
                    assert t4.conj(x, y) == min(x, y)

    @given(rats, rats, rats)
    @settings(max_examples=60)
    def test_residuum_monotonicity(self, x, y, z):
        for T in (GODEL, LUKASIEWICZ, PRODUCT):
            a, b = min(y, z), max(y, z)
            assert T.residuum(x, a) <= T.residuum(x, b)  # monotone second arg
            assert T.residuum(b, x) <= T.residuum(a, x)  # antitone first arg


class TestIdempotentHull:
    def test_interior_point(self, t4):
        f = t4.idem_hull(F(3, 10))
        assert (f.lo, f.hi) == (F(1, 4), F(1, 2))
        assert f.summand is not None and f.summand.kind is SummandKind.LUKASIEWICZ

    def test_idempotent_point_degenerate(self, t4):
        f = t4.idem_hull(F(1, 8))
        assert (f.lo, f.hi) == (F(1, 8), F(1, 8)) and f.degenerate

    def test_plain_product_hull(self):
        f = PRODUCT.idem_hull(F(1, 2))
        assert (f.lo, f.hi) == (F(0), F(1))

    def test_hull_endpoints_idempotent(self, families):
        rng = random.Random(9)
        for T in families:
            for _ in range(20):
                c = F(rng.randint(0, 48), 48)
                f = T.idem_hull(c)
                assert T.is_idempotent(f.lo) and T.is_idempotent(f.hi)
                if not T.is_idempotent(c):
                    s = f.summand
                    assert s is not None and (s.lo, s.hi) == (f.lo, f.hi)


class TestFrameResiduum:
    def test_reflexive_caps_at_frame_unit(self, t4):
        fr = t4.idem_hull(F(3, 10))
        for x in (F(1, 4), F(3, 10), F(2, 5), F(1, 2)):
            assert t4.frame_residuum(fr, x, x) == F(1, 2)

    def test_scaled_lukasiewicz_value(self, t4):
        fr = t4.idem_hull(F(3, 10))
        assert t4.frame_residuum(fr, F(2, 5), F(3, 10)) == F(2, 5)
        # brute force: largest z in the frame with conj(2/5, z) <= 3/10
        pts = [p for p in grid(40) if F(1, 4) <= p <= F(1, 2)]
        best = max(z for z in pts if t4.conj(F(2, 5), z) <= F(3, 10))
        assert best == F(2, 5)

    def test_matches_global_when_below_unit(self, t4):
        fr = t4.idem_hull(F(7, 10))
        assert t4.frame_residuum(fr, F(3, 4), F(3, 5)) == F(7, 10)

    def test_domain_errors(self, t4):
        with pytest.raises(DomainError):
            t4.frame_residuum(Frame(F(1, 4), F(1, 4)), F(1, 4), F(1, 4))
        fr = t4.idem_hull(F(3, 10))
        with pytest.raises(DomainError):
            t4.frame_residuum(fr, F(1, 8), F(3, 10))

    def test_boundary_convention(self, t4):
        # at summand-closure boundaries the min rule and the scaled formula
        # give the same value, so the branch choice is immaterial
        for s in t4.summands:
            w = s.hi - s.lo
            for y in (s.lo, (s.lo + s.hi) / 2, s.hi):
                if s.kind is SummandKind.LUKASIEWICZ:
                    scaled_lo = max(s.lo, s.lo + y - s.hi)
                    scaled_hi = max(s.lo, s.hi + y - s.hi)
                else:
                    scaled_lo = s.lo + (s.lo - s.lo) * (y - s.lo) / w
                    scaled_hi = s.lo + (s.hi - s.lo) * (y - s.lo) / w
                assert t4.conj(s.lo, y) == min(s.lo, y) == scaled_lo
                assert t4.conj(s.hi, y) == min(s.hi, y) == scaled_hi


class TestTextFormat:
    def test_round_trip(self, t4):
        text = print_tnorm(t4, "T4")
        body = text.splitlines()[1:]
        assert parse_tnorm_body("T4", body) == t4

    def test_aliases(self):
        assert parse_tnorm_body("godel", []) == GODEL
        assert parse_tnorm_body("lukasiewicz", []) == LUKASIEWICZ
        assert parse_tnorm_body("product", []) == PRODUCT
        assert builtin("godel") == GODEL

    def test_alias_with_summands_rejected(self):
        from qflat import ParseError

        with pytest.raises(ParseError):
            parse_tnorm_body("godel", ["summand 0 1 product"])

    def test_zero_summands_is_min(self):
        assert parse_tnorm_body("custom", []) == GODEL


class TestExactArguments:
    @pytest.mark.parametrize("bad", [0.5, 0.25, 1.0, 0.0, "1/2", None])
    def test_inexact_arguments_rejected(self, t4, bad):
        for T in (GODEL, LUKASIEWICZ, PRODUCT, t4):
            for call in (
                lambda: T.conj(bad, F(1, 4)),
                lambda: T.conj(F(1, 4), bad),
                lambda: T.residuum(bad, F(1, 2)),
                lambda: T.residuum(F(3, 4), bad),
                lambda: T.is_idempotent(bad),
            ):
                with pytest.raises(DomainError, match="is not an exact rational"):
                    call()

    def test_ints_and_fractions_accepted(self, t4):
        assert GODEL.conj(1, F(1, 4)) == F(1, 4)
        assert t4.residuum(F(3, 4), 0) == 0
        assert t4.is_idempotent(1) and t4.is_idempotent(F(0))
        for bad in (-1, 2, F(-1, 3), F(4, 3)):
            with pytest.raises(DomainError, match=r"outside \[0,1\]"):
                GODEL.conj(bad, F(1, 2))


# Each entry point that builds an exact object from a scalar, with the exact
# scalars it accepts at that position (no integer is interior to a summand).
ENTRY_POINTS = {
    "make_tnorm": (lambda v: make_tnorm([(v, F(3, 4), "product")]), (0, F(1, 4))),
    "principal_lower": (lambda v: principal_lower(PRODUCT, v), (0, 1, F(1, 10))),
    "principal_upper": (lambda v: principal_upper(PRODUCT, v), (0, 1, F(1, 10))),
    "witness_upper_pair": (lambda v: witness_upper_pair(PRODUCT, PwFn.identity(), v), (1, F(1, 10))),
    "restrict_ideal": (lambda v: restrict_ideal(PRODUCT, PwFn.constant(1), v), (F(1, 10),)),
    "PwFn.constant": (lambda v: PwFn.constant(v), (0, F(1, 10))),
    "PwFn.constant domain": (lambda v: PwFn.constant(F(1, 2), v, 1), (0, F(1, 10))),
    "PwFn.from_points": (lambda v: PwFn.from_points([(0, v), (F(1, 2), v), (1, 1)]), (1, F(1, 10))),
    "PwFn.from_points position": (lambda v: PwFn.from_points([(0, 0), (v, 0), (1, 1)]), (F(1, 10),)),
    "PwFn.eval": (lambda v: PwFn.identity().eval(v), (1, F(1, 10))),
    "PwFn.refine": (lambda v: PwFn.identity().refine([v]), (1, F(1, 10))),
    "PwFn.restrict": (lambda v: PwFn.identity().restrict(v, 1), (0, F(1, 10))),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [0.1, 0.25, 1.0])
def test_float_refused_before_conversion(name, bad):
    """A float never becomes its binary fraction, however exact that is."""
    build, _ = ENTRY_POINTS[name]
    with pytest.raises(DomainError, match="is not an exact rational"):
        build(bad)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_ints_and_fractions_still_build(name):
    build, good = ENTRY_POINTS[name]
    for value in good:
        build(value)


class TestParseRat:
    def test_digit_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the smallest limit the interpreter allows
        try:
            assert fmt_rat(parse_rat("1e639")) == "1" + "0" * 639
            assert fmt_rat(parse_rat("1e-639")) == "1/1" + "0" * 639
            for text in ("1e640", "1e-640", "0." + "0" * 639 + "1"):
                with pytest.raises(ParseError):
                    parse_rat(text)
        finally:
            sys.set_int_max_str_digits(old)

    def test_fmt_rat_beyond_digit_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(DomainError):
                fmt_rat(F(1, 10**700))
        finally:
            sys.set_int_max_str_digits(old)
