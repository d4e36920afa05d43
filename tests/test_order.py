import bisect
import hashlib
import importlib
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qflat import GODEL, LUKASIEWICZ, PRODUCT, Breakpoint, PwFn, make_tnorm, pwfn
from qflat._sup import quad_roots
from qflat.ideal import _check_f2, check_flat, k_set
from qflat.oracle import (
    flat_candidates,
    mutated_flat,
    random_lower,
    random_pwfn,
    random_rat,
    random_tnorm,
    random_upper,
)
from qflat.order import (
    _conj_gap_sup,
    _floor_report,
    _frame_report,
    _gap_walk,
    _min_gap_sup,
    _solve_eq,
    check_lower_set,
    check_upper_set,
    d_L,
    d_R,
    def_witness,
    hull_walk,
    principal_lower,
    principal_upper,
    tensor,
)
from qflat.pwfn import (
    LinFrac,
    SupResult,
    affine_piece,
    chord,
    const_piece,
    crossings,
    halve_toward,
    kept_sign,
    linfrac,
    pointwise_max,
    pointwise_min,
)
from qflat.rat import DomainError, ExactnessError, fmt_rat
from qflat.report import PairWitness, PointWitness, violated
from qflat.tnorms import OrdinalSumTNorm, SummandKind

from conftest import equal_points, grid, grid_tensor, tnorm_over_997

order_module = importlib.import_module("qflat.order")

rats = st.fractions(min_value=0, max_value=1, max_denominator=16)


class TestCanonicalOrders:
    @given(rats)
    def test_reflexivity(self, x):
        for T in (GODEL, LUKASIEWICZ, PRODUCT):
            assert d_L(T, x, x) == 1

    def test_goedel_values(self):
        assert d_L(GODEL, F(7, 10), F(1, 2)) == F(1, 2)
        assert d_R(GODEL, F(7, 10), F(1, 2)) == 1

    def test_order_axioms_on_grid(self, t4, families):
        pts = grid(8)
        for T in families:
            pts_T = sorted(set(pts) | set(T.idempotent_levels()))
            for x in pts_T:
                assert d_L(T, x, x) == 1
                for y in pts_T:
                    for z in pts_T:
                        assert T.conj(d_L(T, y, z), d_L(T, x, y)) <= d_L(T, x, z)


class TestPrincipalSets:
    def test_goedel_principal_lower_shape(self):
        f = principal_lower(GODEL, F(1, 2))
        assert f.eval(F(1, 4)) == 1
        assert f.eval(F(1, 2)) == 1
        assert f.eval(F(1, 2), "above") == F(1, 2)
        assert f.eval(F(3, 4)) == F(1, 2)

    def test_top_principal_is_constant_one(self, t4):
        for T in (GODEL, LUKASIEWICZ, PRODUCT, t4):
            assert principal_lower(T, F(1)) == PwFn.constant(F(1))

    def test_lukasiewicz_principal_formula(self):
        f = principal_lower(LUKASIEWICZ, F(1, 2))
        rng = random.Random(1)
        for _ in range(50):
            y = F(rng.randint(0, 60), 60)
            assert f.eval(y) == min(F(1), 1 - y + F(1, 2))

    def test_principal_matches_residuum_pointwise(self, families):
        rng = random.Random(2)
        for T in families:
            for _ in range(6):
                x0 = F(rng.randint(0, 24), 24)
                low = principal_lower(T, x0)
                up = principal_upper(T, x0)
                for _ in range(40):
                    y = F(rng.randint(0, 48), 48)
                    assert low.eval(y) == T.residuum(y, x0)
                    assert up.eval(y) == T.residuum(x0, y)

    def test_principal_sets_pass_their_checks(self, families):
        rng = random.Random(3)
        for T in families:
            for _ in range(5):
                x0 = F(rng.randint(0, 20), 20)
                assert check_lower_set(T, principal_lower(T, x0)).holds
                assert check_upper_set(T, principal_upper(T, x0)).holds

    def test_unvalidated_builds_match_the_pwfn_route(self, families):
        """principal_upper and PwFn.constant skip pwfn(); rebuilt by pwfn()
        from their breakpoints alone, chords through every value, they come
        out the same, and principal_upper takes the residuum's values."""
        rng = random.Random(45)
        xs = [F(0), F(1)] + [random_rat(rng) for _ in range(12)]
        for T in families + [tnorm_over_997(rng) for _ in range(4)]:
            for x0 in xs:
                up = principal_upper(T, x0)
                assert pwfn(up.breakpoints) == up
                assert all(up.eval(y) == T.residuum(x0, y) for y in xs)
        for k in xs:
            for lo, hi in ((F(0), F(1)), (F(1, 4), F(1, 2))):
                assert PwFn.constant(k, lo, hi) == pwfn([Breakpoint(lo, k, k, k), Breakpoint(hi, k, k, k)])
        with pytest.raises(DomainError, match="strictly increasing"):
            PwFn.constant(F(1, 3), F(1, 2), F(1, 2))
        with pytest.raises(DomainError, match="upper profile"):
            PwFn.upper_profile(F(1, 2), affine_piece(F(1), F(0)), F(1, 4))
        with pytest.raises(DomainError, match="profile value"):
            PwFn.upper_profile(F(0), affine_piece(F(2), F(0)), F(3, 4))


class TestTensor:
    def test_unit_absorbs(self, t4):
        psi = principal_upper(t4, F(3, 10))
        one = PwFn.constant(F(1))
        assert tensor(t4, one, psi) == psi.global_sup()

    def test_goedel_principal_identity(self):
        phi = principal_lower(GODEL, F(1, 2))
        res = tensor(GODEL, phi, PwFn.identity())
        assert res == (F(1, 2), True)
        assert grid_tensor(GODEL, phi, PwFn.identity()) == F(1, 2)

    def test_step_against_constant(self, t4):
        phi = pwfn(
            [Breakpoint(F(0), F(1), F(1), F(3, 5)), Breakpoint(F(1), F(3, 5), F(3, 5), F(3, 5))]
        )
        res = tensor(t4, phi, PwFn.constant(F(3, 5)))
        assert res == (F(3, 5), True)
        assert grid_tensor(t4, phi, PwFn.constant(F(3, 5))) == F(3, 5)

    def test_tensor_dominates_samples_and_matches_grid(self, t4, families):
        rng = random.Random(4)
        for T in families:
            phi = principal_lower(T, F(rng.randint(0, 12), 12))
            psi = principal_upper(T, F(rng.randint(0, 12), 12))
            val, _ = tensor(T, phi, psi)
            for _ in range(60):
                x = F(rng.randint(0, 96), 96)
                assert T.conj(phi.eval(x), psi.eval(x)) <= val
            assert grid_tensor(T, phi, psi, 96) <= val

    def test_fractional_lower_operand(self):
        # product principal has a genuinely non-affine piece
        phi = principal_lower(PRODUCT, F(1, 3))
        val, attained = tensor(PRODUCT, phi, PwFn.identity())
        # conj(phi(x), x) = x for x <= 1/3, then (1/3/x)*x = 1/3
        assert (val, attained) == (F(1, 3), True)

    def test_min_tensor_equals_sup_of_pointwise_min(self):
        # under min the tensor must agree with an entirely separate exact
        # path: pointwise meet followed by the global supremum
        rng = random.Random(6)
        from qflat.oracle import random_lower, random_pwfn, random_upper

        for i in range(40):
            phi = random_lower(GODEL, rng) if i % 3 else random_pwfn(rng)
            psi = random_upper(GODEL, rng) if i % 2 else random_pwfn(rng)
            assert tensor(GODEL, phi, psi) == pointwise_min(phi, psi).global_sup()

    def test_constants_tensor_to_their_conjunction(self, families):
        for T in families:
            a, b = F(3, 7), F(5, 8)
            assert tensor(T, PwFn.constant(a), PwFn.constant(b)) == (T.conj(a, b), True)


def unpruned_tensor(T, phi, psi):
    """tensor without pruning: every breakpoint, every level cut, every gap."""
    pos = sorted(set(phi.positions()) | set(psi.positions()))
    f, g = phi.refine(pos), psi.refine(pos)
    cuts = set()
    for h in (f, g):
        for i, piece in enumerate(h.pieces):
            u, v = pos[i], pos[i + 1]
            for lv in T.idempotent_levels():
                x = _solve_eq(piece, lv)
                if x is not None and u < x < v:
                    cuts.add(x)
    f, g = f.refine(cuts), g.refine(cuts)
    xs = f.positions()
    cands = [(T.conj(bf.at, bg.at), True) for bf, bg in zip(f.breakpoints, g.breakpoints)]
    cands += [
        tuple(_conj_gap_sup(T, f.pieces[i], g.pieces[i], xs[i], xs[i + 1]))
        for i in range(len(f.pieces))
    ]
    best = max(val for val, _ in cands)
    return SupResult(best, any(reach for val, reach in cands if val == best))


def pruning_population(seed, count=150):
    """The (T, phi, psi) triples of TestTensorPruning."""
    rng = random.Random(seed)
    for _ in range(count):
        T = tnorm_over_997(rng) if rng.random() < 0.3 else random_tnorm(rng)
        phi = rng.choice(
            (
                lambda: random_pwfn(rng),
                lambda: random_lower(T, rng),
                lambda: flat_candidates(T, rng, 1)[0],
            )
        )()
        psi = rng.choice(
            (
                lambda: random_pwfn(rng),
                lambda: random_upper(T, rng),
                lambda: pointwise_min(random_upper(T, rng), random_upper(T, rng)),
            )
        )()
        yield T, phi, psi


def equal_bound_case():
    phi = pwfn(
        [
            Breakpoint(F(0), F(1), F(1), F(1)),
            Breakpoint(F(1, 2), F(1, 2), F(1, 2), F(1)),
            Breakpoint(F(1), F(1), F(1), F(1)),
        ]
    )
    psi = pwfn(
        [
            Breakpoint(F(0), F(0), F(0), F(0)),
            Breakpoint(F(1, 2), F(1), F(0), F(1, 2)),
            Breakpoint(F(1), F(1, 2), F(0), F(0)),
        ]
    )
    return phi, psi


class TestTensorPruning:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_unpruned_reference(self, seed):
        for T, phi, psi in pruning_population(seed):
            assert tensor(T, phi, psi) == unpruned_tensor(T, phi, psi)

    def test_equal_bound_gap_is_visited(self):
        # the first gap sets best = 1/2 as a limit only; the second gap's
        # bound equals 1/2 and it attains 1/2, so it must not be skipped
        phi, psi = equal_bound_case()
        assert tensor(PRODUCT, phi, psi) == SupResult(F(1, 2), True)
        assert unpruned_tensor(PRODUCT, phi, psi) == SupResult(F(1, 2), True)

    def test_skipped_gap_needs_no_exact_crossing(self):
        # on (0, 1/2), 1/(x+2) crosses x at sqrt(2)-1, but that gap's bound
        # 1/2 is below the value 1 reached at x = 1/2
        phi = pwfn(
            [
                Breakpoint(F(0), F(1, 2), F(1, 2), F(1, 2)),
                Breakpoint(F(1, 2), F(2, 5), F(1), F(1)),
                Breakpoint(F(1), F(1), F(1), F(1)),
            ],
            [LinFrac(F(0), F(1), F(1), F(2)), const_piece(F(1))],
        )
        psi = pwfn(
            [
                Breakpoint(F(0), F(0), F(0), F(0)),
                Breakpoint(F(1, 2), F(1, 2), F(1), F(1)),
                Breakpoint(F(1), F(1), F(1), F(1)),
            ],
            [affine_piece(F(1), F(0)), const_piece(F(1))],
        )
        assert tensor(GODEL, phi, psi) == SupResult(F(1), True)
        with pytest.raises(ExactnessError):
            unpruned_tensor(GODEL, phi, psi)


def refined_walk(T, phi, psi, target):
    """The gap walk on both operands refined at the union of their
    breakpoints, every breakpoint's conjunction taken before any gap."""
    f, g = phi.refine(psi.positions()), psi.refine(phi.positions())
    xs = f.positions()
    best, attained = F(0), False

    def feed(val, reach):
        nonlocal best, attained
        if val > best:
            best, attained = val, reach
        elif val == best:
            attained = attained or reach

    for bf, bg in zip(f.breakpoints, g.breakpoints):
        feed(T.conj(bf.at, bg.at), True)
    lf = [(a.right, b.left) for a, b in zip(f.breakpoints, f.breakpoints[1:])]
    lg = [(a.right, b.left) for a, b in zip(g.breakpoints, g.breakpoints[1:])]
    levels = T.idempotent_levels()
    for bound, i in sorted(((min(max(lf[i]), max(lg[i])), i) for i in range(len(lf))), reverse=True):
        if bound < best or (target is not None and best >= target):
            break
        fp, gp = f.pieces[i], g.pieces[i]
        ends = ((fp, sorted(lf[i])), (gp, sorted(lg[i])))
        cuts = sorted({_solve_eq(p, lv) for p, (lo, hi) in ends for lv in levels if lo < lv < hi})
        for x in cuts:
            feed(T.conj(fp(x), gp(x)), True)
        for p, q in zip([xs[i], *cuts], [*cuts, xs[i + 1]]):
            feed(*order_module._conj_gap_sup(T, fp, gp, p, q))
    return SupResult(best, attained)


def walk_cases(seed):
    """(T, phi, psi, target) for seeded lower sets, flats and F2/F3 mutants
    against principal, constant and random upper sets, and against the min
    of every two of those with the target a separation test gives it."""
    rng = random.Random(seed)
    T = (random_tnorm, tnorm_over_997)[seed % 2](rng)
    phis = [random_lower(T, rng), *flat_candidates(T, rng, 2)]
    phis += [g for g in (mutated_flat(T, rng, rule) for rule in ("F2", "F3")) if g is not None]
    psis = [principal_upper(T, random_rat(rng)), PwFn.constant(random_rat(rng))]
    psis += [random_upper(T, rng), random_upper(T, rng)]
    for phi in phis:
        singles = [tensor(T, phi, psi).value for psi in psis]
        for psi, value in zip(psis, singles):
            for target in (None, value, value + F(1, 997), random_rat(rng)):
                yield T, phi, psi, target
        for i, j in ((i, j) for i in range(len(psis)) for j in range(i)):
            try:
                joint = pointwise_min(psis[i], psis[j])
            except ExactnessError:  # an irrational crossing: no such function
                continue
            yield T, phi, joint, None
            yield T, phi, joint, min(singles[i], singles[j])


@pytest.mark.parametrize("seed", range(8))
def test_merged_walk_matches_the_refined_walk(seed, monkeypatch):
    """The walk over one merged pass, breakpoints queued with gaps, passes
    the same sub-gaps to _conj_gap_sup as the refined walk that takes every
    breakpoint first, so it meets the same refusals.  Without a target it
    returns the same supremum; with one, the same decision, and the same
    exact value below the target."""
    calls = []
    inner = order_module._conj_gap_sup
    monkeypatch.setattr(order_module, "_conj_gap_sup", lambda *a: calls.append(a[1:]) or inner(*a))
    seen = Counter()
    for T, phi, psi, target in walk_cases(seed):
        outs = []
        for walk in (refined_walk, _gap_walk):
            calls.clear()
            try:
                outs.append((walk(T, phi, psi, target), list(calls)))
            except ExactnessError:
                outs.append((None, list(calls)))
        (want, want_gaps), (got, got_gaps) = outs
        assert got_gaps == want_gaps, (T.describe(), phi, psi, target)
        if want is None or got is None:
            assert want is got
            seen["refusal"] += 1
        elif target is None or want.value < target:
            assert got == want, (T.describe(), phi, psi, target)
            seen["exact"] += 1
        else:
            assert got.value >= target, (T.describe(), phi, psi, target)
            seen["reached"] += 1
    assert seen["exact"] and seen["reached"], seen


def searched_min_gap_sup(fp, gp, u, v):
    """_min_gap_sup with a crossing search on every gap."""
    xs = [u, *crossings(fp, gp, u, v), v]
    best = max(min(fp(x), gp(x)) for x in xs)
    inside = xs[1:-1] + [(p + q) / 2 for p, q in zip(xs, xs[1:])]
    return SupResult(best, any(min(fp(x), gp(x)) == best for x in inside))


def test_min_gap_sup_matches_the_crossing_search():
    """On every gap of every walk, cut at the idempotent levels, the sup of
    min(f, g) is the one a crossing search finds, refusals included, both
    where the end values rule crossings out and where they do not."""
    seen = Counter()
    cases = (case for seed in range(8) for case in walk_cases(seed))
    for T, phi, psi, target in cases:
        if target is not None:
            continue
        for fp, gp, u, v in level_gaps(T, phi, psi):
            skip = kept_sign(fp(u), fp(v), gp(u), gp(v)) is not None
            try:
                want = searched_min_gap_sup(fp, gp, u, v)
            except ExactnessError:
                with pytest.raises(ExactnessError):
                    _min_gap_sup(fp, gp, u, v)
                seen["refusal"] += 1
                continue
            assert _min_gap_sup(fp, gp, u, v) == want, (T.describe(), fp, gp, u, v)
            seen["skip" if skip else "search"] += 1
            seen["crossing"] += bool(crossings(fp, gp, u, v))
    assert seen["skip"] and seen["search"] and seen["crossing"], seen
    # x and (2x - 1/5)/(x + 1) rise together and cross at (5 -+ sqrt(5))/10,
    # so the same sign at both ends does not rule crossings out
    x, rising = affine_piece(F(1), F(0)), linfrac(F(2), F(-1, 5), F(1), F(1))
    with pytest.raises(ExactnessError):
        _min_gap_sup(x, rising, F(1, 10), F(9, 10))


def tensor_reaches(T, phi, psi, m):
    """Whether the walk with target m reaches it: tensor(T, phi, psi).value >= m."""
    return _gap_walk(T, phi, psi, m).value >= m


class TestTensorReaches:
    def test_equal_bound_case_reaches_half(self):
        phi, psi = equal_bound_case()
        assert tensor_reaches(PRODUCT, phi, psi, F(1, 2))
        assert not tensor_reaches(PRODUCT, phi, psi, F(1, 2) + F(1, 997))

    def test_false_just_above_a_limit_sup(self):
        # min(phi, x) climbs to 1/2 as x -> 1/2 from below and drops to 0 there
        phi = pwfn(
            [
                Breakpoint(F(0), F(1), F(1), F(1)),
                Breakpoint(F(1, 2), F(1), F(0), F(0)),
                Breakpoint(F(1), F(0), F(0), F(0)),
            ]
        )
        psi = PwFn.identity()
        assert tensor(GODEL, phi, psi) == SupResult(F(1, 2), False)
        assert tensor_reaches(GODEL, phi, psi, F(1, 2))
        assert not tensor_reaches(GODEL, phi, psi, F(1, 2) + F(1, 997))

    def test_gap_whose_bound_equals_target_is_visited(self):
        # every breakpoint gives 0; the only gap has bound 1/2 and reaches it
        phi = PwFn.constant(F(1, 2))
        psi = pwfn(
            [Breakpoint(F(0), F(0), F(0), F(0)), Breakpoint(F(1), F(1), F(0), F(0))]
        )
        assert tensor(GODEL, phi, psi) == SupResult(F(1, 2), True)
        assert tensor_reaches(GODEL, phi, psi, F(1, 2))

    def test_stops_at_first_gap_reaching_target(self, monkeypatch):
        # two gaps of bound 1/2, each reaching 1/2 only as a limit: the
        # full tensor visits both, the decision stops after the first
        from qflat import order

        psi = pwfn(
            [
                Breakpoint(F(0), F(0), F(0), F(0)),
                Breakpoint(F(1, 2), F(1, 2), F(0), F(0)),
                Breakpoint(F(1), F(1, 2), F(0), F(0)),
            ]
        )
        phi = PwFn.constant(F(1))
        calls = []
        inner = order._conj_gap_sup
        monkeypatch.setattr(order, "_conj_gap_sup", lambda *a: calls.append(a) or inner(*a))
        assert tensor(GODEL, phi, psi) == SupResult(F(1, 2), False)
        assert len(calls) == 2
        calls.clear()
        assert tensor_reaches(GODEL, phi, psi, F(1, 2))
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_full_tensor_on_pruning_population(self, seed):
        for T, phi, psi in pruning_population(seed):
            value = tensor(T, phi, psi).value
            for m in (value, value - F(1, 997), value + F(1, 997)):
                assert tensor_reaches(T, phi, psi, m) == (value >= m), (T.describe(), m)


class TestYonedaGuard:
    """tensor tied to check_lower_set through its closed forms, and the meet
    of two principal upper sets; no floats."""

    def test_closed_forms_and_witnesses(self):
        rng = random.Random(1973)
        pairs = witnesses = 0
        for fam in range(40):
            T = tnorm_over_997(rng) if fam % 2 else random_tnorm(rng)
            for i in range(40):
                phi = random_lower(T, rng) if i % 2 else flat_candidates(T, rng, 1)[0]
                c, k = random_rat(rng), random_rat(rng)
                assert tensor(T, phi, principal_upper(T, c)) == SupResult(phi.eval(c), True)
                assert tensor(T, phi, PwFn.constant(k)).value == T.conj(phi.eval(F(0)), k)
                # with the Yoneda form, decides every principal pair in falsify_flat
                both = pointwise_min(principal_upper(T, c), principal_upper(T, k))
                assert both == principal_upper(T, max(c, k))
                pairs += 2
                f = random_pwfn(rng)
                rep = check_lower_set(T, f)
                if not rep.holds:
                    w = rep.witness
                    assert isinstance(w, (PairWitness, PointWitness))
                    y = w.b if isinstance(w, PairWitness) else F(1)
                    assert tensor(T, f, principal_upper(T, y)).value > f.eval(y), rep.describe()
                    witnesses += 1
        assert pairs == 3200 and witnesses > 500


class TestCheckLowerSet:
    def test_principals_hold(self, t4):
        assert check_lower_set(t4, principal_lower(t4, F(3, 10))).holds

    def test_irrational_identity_meeting_is_refused(self):
        # the product principal at 1/2 is x -> 1/(2x) on (1/2, 1], which
        # meets the identity of the Goedel walk at 1/sqrt(2)
        with pytest.raises(ExactnessError, match=r"inside \(1/2, 1\)"):
            check_lower_set(GODEL, principal_lower(PRODUCT, F(1, 2)))

    def test_l2_violator_under_goedel(self):
        phi = pwfn(
            [
                Breakpoint(F(0), F(3, 4), F(3, 4), F(3, 4)),
                Breakpoint(F(1, 2), F(3, 4), F(1, 2), F(1, 2)),
                Breakpoint(F(3, 4), F(1, 2), F(1, 4), F(1, 4)),
                Breakpoint(F(1), F(1, 4), F(1, 4), F(1, 4)),
            ]
        )
        rep = check_lower_set(GODEL, phi)
        assert not rep.holds and rep.rule == "L2"
        c = rep.witness.c
        assert phi.eval(c) <= c and phi.eval(c) != phi.eval(F(1))

    def test_lipschitz_violator_under_lukasiewicz(self):
        phi = pwfn(
            [
                Breakpoint(F(0), F(1), F(1), F(1)),
                Breakpoint(F(1, 2), F(0), F(0), F(0)),
                Breakpoint(F(1), F(0), F(0), F(0)),
            ]
        )
        rep = check_lower_set(LUKASIEWICZ, phi)
        assert not rep.holds and rep.rule == "L3"
        w = rep.witness
        assert isinstance(w, PairWitness) and w.lhs > w.rhs
        # witness violates the definitional inequality, recomputed from scratch
        lhs = LUKASIEWICZ.conj(phi.eval(w.a), LUKASIEWICZ.residuum(w.b, w.a))
        assert lhs > phi.eval(w.b)

    def test_l4_violator_under_goedel(self):
        phi = pwfn(
            [
                Breakpoint(F(0), F(1), F(1), F(1)),
                Breakpoint(F(1, 2), F(1), F(1), F(1, 4)),
                Breakpoint(F(1), F(1, 4), F(1, 4), F(1, 4)),
            ]
        )
        rep = check_lower_set(GODEL, phi)
        assert not rep.holds and rep.rule == "L4"
        c = rep.witness.c
        assert GODEL.is_idempotent(c) and phi.eval(c) >= c > phi.eval(F(1))

    @pytest.mark.parametrize("summands", [[], [(F(3, 4), F(1), "product")]], ids=["godel", "product_on_top"])
    def test_l4_inside_an_idempotent_gap(self, summands):
        # no point fires: phi(0) = 1 but 0 is not above phi(1) = 1/4, and
        # phi(1/2) = 1/4 < 1/2; phi >= id on the idempotent gap (0, 1/2)
        # gives the witness halfway between phi(1) and 1/2
        phi = pwfn(
            [
                Breakpoint(F(0), F(1), F(1), F(1)),
                Breakpoint(F(1, 2), F(1), F(1, 4), F(1, 4)),
                Breakpoint(F(1), F(1, 4), F(1, 4), F(1, 4)),
            ]
        )
        rep = check_lower_set(make_tnorm(summands), phi)
        assert rep.describe() == "VIOLATED L4 c=3/8 phi(c)=1 phi(1)=1/4"

    def test_constants_are_lower_sets(self, families):
        for T in families:
            assert check_lower_set(T, PwFn.constant(F(2, 5))).holds

    def test_product_frame_ratio_violation(self, t4):
        # inside the product summand (1/2, 1): too-steep multiplicative drop
        phi = pwfn(
            [
                Breakpoint(F(0), F(1), F(1), F(1)),
                Breakpoint(F(1, 2), F(1), F(1), F(1)),
                Breakpoint(F(3, 4), F(1), F(1), F(11, 20)),
                Breakpoint(F(1), F(11, 20), F(11, 20), F(11, 20)),
            ]
        )
        rep = check_lower_set(t4, phi)
        assert not rep.holds and rep.rule == "L3"
        w = rep.witness
        lhs = t4.conj(phi.eval(w.a), t4.residuum(w.b, w.a))
        assert lhs > phi.eval(w.b)


class TestCheckUpperSet:
    def test_principals_and_constants_hold(self, t4, families):
        for T in families:
            assert check_upper_set(T, principal_upper(T, F(2, 5))).holds
            assert check_upper_set(T, PwFn.constant(F(3, 7))).holds

    def test_half_identity_violates_under_goedel(self):
        psi = pwfn(
            [Breakpoint(F(0), F(0), F(0), F(0)), Breakpoint(F(1), F(1, 2), F(1, 2), F(1, 2))]
        )
        rep = check_upper_set(GODEL, psi)
        assert not rep.holds and rep.rule == "U2"
        c = rep.witness.c
        assert psi.eval(c) < c and psi.eval(c) != psi.eval(F(1))

    def test_identity_is_upper_set(self, families):
        for T in families:
            assert check_upper_set(T, PwFn.identity()).holds

    def test_lipschitz_violation_under_lukasiewicz(self):
        psi = pwfn(
            [Breakpoint(F(0), F(0), F(0), F(0)), Breakpoint(F(1, 2), F(1), F(1), F(1)), Breakpoint(F(1), F(1), F(1), F(1))]
        )
        rep = check_upper_set(LUKASIEWICZ, psi)
        assert not rep.holds and rep.rule == "U3"
        w = rep.witness
        lhs = LUKASIEWICZ.conj(LUKASIEWICZ.residuum(w.a, w.b), psi.eval(w.a))
        assert lhs > psi.eval(w.b)

    def test_monotone_class_closure(self, families):
        rng = random.Random(8)
        from qflat.oracle import random_upper

        for T in families:
            for _ in range(6):
                f, g = random_upper(T, rng), random_upper(T, rng)
                assert check_upper_set(T, pointwise_min(f, g)).holds
                assert check_upper_set(T, pointwise_max(f, g)).holds


class TestSoundnessCompleteness:
    def test_holding_candidates_pass_definitional_grid(self, families):
        rng = random.Random(12)
        from qflat.oracle import GridSpec, falsify_lower_set, falsify_upper_set, random_lower, random_upper

        g = GridSpec(48)
        for T in families[:4]:
            for _ in range(4):
                f = random_lower(T, rng)
                if check_lower_set(T, f).holds:
                    assert falsify_lower_set(T, f, g).holds
                u = random_upper(T, rng)
                if check_upper_set(T, u).holds:
                    assert falsify_upper_set(T, u, g).holds

    def test_violations_revalidate(self, families):
        rng = random.Random(13)
        from qflat.oracle import random_pwfn, revalidate_witness

        for T in families:
            hits = 0
            for _ in range(30):
                f = random_pwfn(rng)
                rep = check_lower_set(T, f)
                if not rep.holds:
                    hits += 1
                    assert revalidate_witness(T, f, rep, lower=True)
                rep = check_upper_set(T, f)
                if not rep.holds:
                    assert revalidate_witness(T, f, rep, lower=False)
            assert hits  # random candidates do exercise the violation paths


class TestFrameBottomJumps:
    """On t4 = (1/4,1/2,luk) + (1/2,1,product): a product frame allows a jump
    at its bottom and at no other point."""

    def test_lower_jump_at_frame_bottom_holds(self, t4):
        phi = pwfn(
            [
                Breakpoint(F(0), F(1), F(1), F(1)),
                Breakpoint(F(1, 2), F(1), F(1), F(3, 4)),
                Breakpoint(F(1), F(3, 4), F(3, 4), F(3, 4)),
            ]
        )
        assert check_lower_set(t4, phi).holds

    def test_lower_jump_inside_product_frame_fails_l3(self, t4):
        phi = pwfn(
            [
                Breakpoint(F(0), F(1), F(1), F(1)),
                Breakpoint(F(3, 4), F(1), F(1), F(7, 8)),
                Breakpoint(F(1), F(7, 8), F(7, 8), F(7, 8)),
            ]
        )
        rep = check_lower_set(t4, phi)
        assert not rep.holds and rep.rule == "L3"
        w = rep.witness
        assert t4.conj(phi.eval(w.a), t4.residuum(w.b, w.a)) > phi.eval(w.b)

    def test_upper_jump_at_frame_bottom_holds(self, t4):
        psi = pwfn(
            [
                Breakpoint(F(0), F(0), F(0), F(0)),
                Breakpoint(F(1, 2), F(1, 2), F(1, 2), F(3, 4)),
                Breakpoint(F(1), F(3, 4), F(3, 4), F(3, 4)),
            ]
        )
        assert check_upper_set(t4, psi).holds

    def test_upper_jump_inside_product_frame_fails_u3(self, t4):
        psi = pwfn(
            [
                Breakpoint(F(0), F(0), F(0), F(0)),
                Breakpoint(F(1, 2), F(1, 2), F(1, 2), F(1, 2)),
                Breakpoint(F(3, 4), F(5, 8), F(5, 8), F(7, 8)),
                Breakpoint(F(1), F(7, 8), F(7, 8), F(7, 8)),
            ]
        )
        rep = check_upper_set(t4, psi)
        assert not rep.holds and rep.rule == "U3"
        w = rep.witness
        assert t4.conj(t4.residuum(w.a, w.b), psi.eval(w.a)) > psi.eval(w.b)


# -- the [0,1]-transport route to the frame condition, as a reference --------


def transported(sig, lo, hi):
    """sig on [lo, hi] carried onto [0,1] by x -> (x - lo)/(hi - lo) in both
    arguments and values."""
    h = hi - lo
    to = lambda v: (v - lo) / h  # noqa: E731
    bps = [Breakpoint(to(bp.x), to(bp.left), to(bp.at), to(bp.right)) for bp in sig.breakpoints]
    pcs = []
    for p in sig.pieces:
        d = p.c * lo + p.d
        pcs.append(linfrac(h * (p.a - lo * p.c), p.a * lo + p.b - lo * d, p.c * h * h, h * d))
    return pwfn(bps, pcs)


def reference_jump_scan(f, bad, at_zero):
    bps = f.breakpoints
    for i, bp in enumerate(bps):
        x0 = bp.x
        if x0 == 0 and not at_zero:
            continue
        if i > 0 and bp.left != bp.at:
            return halve_toward(x0, bps[i - 1].x, lambda t: bad(t, x0)), x0
        if i < len(bps) - 1 and bp.at != bp.right:
            return x0, halve_toward(x0, bps[i + 1].x, lambda t: bad(x0, t))
    return None


# The Lukasiewicz scan and the pair search of the reference are its own, so
# that it does not run pwfn.law_violation, the code it checks.


def _pair_near(anchor, other, bad):
    """A sorted pair ((anchor + t)/2, t) satisfying ``bad``, t halving toward anchor."""

    def pair(t):
        a, b = sorted(((anchor + t) / 2, t))
        return a, b

    return pair(halve_toward(anchor, other, lambda t: bad(*pair(t))))


def _mobius_deriv(piece, x):
    den = piece.c * x + piece.d
    return (piece.a * piece.d - piece.b * piece.c) / (den * den)


def _lukasiewicz_scan(sig, sign):
    """A pair a < b with sign*(sig(b) - sig(a)) > b - a, if any: sig fails
    to be 1-Lipschitz downward (sign -1) or upward (sign 1)."""
    bad = lambda a, b: sign * (sig.eval(b) - sig.eval(a)) > b - a  # noqa: E731
    for i, piece in enumerate(sig.pieces):
        u, v = sig.breakpoints[i].x, sig.breakpoints[i + 1].x
        if piece.is_affine:
            if sign * piece.a > 1:
                return u + (v - u) / 4, u + 3 * (v - u) / 4
        else:
            for anchor, other in ((u, v), (v, u)):
                if sign * _mobius_deriv(piece, anchor) > 1:
                    return _pair_near(anchor, other, bad)
    return reference_jump_scan(sig, bad, True)


def reference_lower_scan(g, kind):
    """The basic lower law on [0,1]: x*g(x) non-decreasing for product."""
    if kind is SummandKind.LUKASIEWICZ:
        return _lukasiewicz_scan(g, -1)
    drop = lambda a, b: a * g.eval(a) > b * g.eval(b)  # noqa: E731
    for i, p in enumerate(g.pieces):
        u, v = g.breakpoints[i].x, g.breakpoints[i + 1].x
        for anchor, other in ((u, v), (v, u)):
            den = p.c * anchor + p.d
            if ((p.a * p.c * anchor + 2 * p.a * p.d) * anchor + p.b * p.d) / (den * den) < 0:
                return _pair_near(anchor, other, drop)
    return reference_jump_scan(g, drop, False)


def reference_ratio_rise(p, u, v):
    def wnum(x):
        return -(p.a * p.c) * x * x - 2 * p.b * p.c * x - p.b * p.d

    if u > 0 and wnum(u) > 0:
        return u, v
    if wnum(v) > 0:
        return v, u
    if p.a * p.c != 0 and u < -p.b / p.a < v and wnum(-p.b / p.a) > 0:
        return -p.b / p.a, v
    return None


def reference_upper_scan(g, kind):
    """The basic upper law on [0,1]: g(x)/x non-increasing for product."""
    grow = lambda a, b: a * g.eval(b) > b * g.eval(a)  # noqa: E731
    if kind is SummandKind.LUKASIEWICZ:
        pair = _lukasiewicz_scan(g, 1)
    else:
        xs = g.positions()
        rises = (reference_ratio_rise(p, u, v) for p, u, v in zip(g.pieces, xs, xs[1:]))
        rise = next((r for r in rises if r is not None), None)
        pair = _pair_near(*rise, grow) if rise else reference_jump_scan(g, grow, False)
    return None if pair is None else pair[::-1]


def reference_frame_report(T, f, s, lower):
    """L3/U3 with the basic scans run on [0,1] and the pair mapped back."""
    lo, hi = s.lo, s.hi
    if f.eval(lo) < lo:
        return None  # premise of the frame condition fails
    cap = pointwise_min(f.restrict(lo, hi), PwFn.constant(hi, lo, hi))
    scan = reference_lower_scan if lower else reference_upper_scan
    pair = scan(transported(cap, lo, hi), s.kind)
    if pair is None:
        return None
    x, y = (lo + t * (hi - lo) for t in pair)
    witness = def_witness(T, f, x, y, lower)
    detail = f"frame ({fmt_rat(lo)}, {fmt_rat(hi)}) of kind {s.kind.value}"
    return violated("L3" if lower else "U3", witness, detail=detail)


def hyperbola(u, yu, v, yv, pole):
    """The piece A + K/(x + D) through (u, yu) and (v, yv) with pole -D."""
    D = -pole
    K = (yu - yv) / (1 / (u + D) - 1 / (v + D))
    A = yu - K / (u + D)
    return linfrac(A, A * D + K, F(1), D)


def frame_inputs(T, s, rng, lower):
    """Monotone meshes on [0,1] whose values on the frame of s stay in
    [s.lo, 1], chords or hyperbolas between breakpoints, some of them min
    or max with a principal set."""
    lo, hi = s.lo, s.hi
    inner = {lo + (hi - lo) * F(rng.randint(1, 7), 8) for _ in range(rng.randint(1, 3))}
    xs = sorted({F(0), lo, hi, F(1)} | inner)
    top = F(1) if rng.random() < 0.3 else hi
    vals = [lo + (top - lo) * F(rng.randint(0, 12), 12) for _ in range(3 * len(xs))]
    vals.sort(reverse=lower)
    bps = []
    for i, x in enumerate(xs):
        left, at, right = vals[3 * i : 3 * i + 3] if rng.random() < 0.5 else [vals[3 * i + 1]] * 3
        bps.append(Breakpoint(x, left, at, right))
    pcs = []
    for a, b in zip(bps, bps[1:]):
        if a.right != b.left and rng.random() < 0.5:
            w = (b.x - a.x) * rng.choice((F(1, 2), F(1), F(3)))
            pcs.append(hyperbola(a.x, a.right, b.x, b.left, rng.choice((a.x - w, b.x + w))))
        else:
            pcs.append(chord(a.x, a.right, b.x, b.left))
    f = pwfn(bps, pcs)
    yield f
    principal_set = principal_lower if lower else principal_upper
    principal = principal_set(T, lo + (hi - lo) * F(rng.randint(1, 8), 8))
    for op in (pointwise_min, pointwise_max):
        try:
            yield op(f, principal)
        except ExactnessError:  # an irrational crossing: no such function
            pass


def test_frame_scans_match_the_transport_route():
    """L3/U3 read the basic laws on the frame itself; carrying the capped
    window onto [0,1] first gives the same rule, detail and witness, the cap
    left for F3 is the capped window, and the population reaches a
    basic-case violation for every kind and direction."""
    rng = random.Random(31)
    basic = Counter()
    for fam in range(16):
        T = random_tnorm(rng) if fam % 2 else tnorm_over_997(rng)
        for s in T.summands:
            for lower in (True, False):
                for _ in range(3):
                    for f in frame_inputs(T, s, rng, lower):
                        caps = {}
                        got = _frame_report(T, f, s, lower, caps)
                        want = reference_frame_report(T, f, s, lower)
                        if caps:
                            window = f.restrict(s.lo, s.hi)
                            cap = pointwise_min(window, PwFn.constant(s.hi, s.lo, s.hi))
                            assert caps == {s: cap}
                        assert (got is None) == (want is None), (T.describe(), f)
                        if got is not None:
                            assert got.rule == want.rule and got.detail == want.detail
                            assert got.witness == want.witness
                            if got.detail.startswith("frame ("):
                                basic[s.kind, lower] += 1
    assert set(basic) == {(k, d) for k in SummandKind for d in (True, False)}, basic


# -- the hull walk against positions first, then per-gap lookups --------------


def reference_gap_summand(T, p, q):
    for s in T.summands:
        if s.lo <= p and q <= s.hi:
            return s
    return None


def reference_piece_over(f, p):
    i = bisect.bisect_right(f.positions(), p) - 1
    return f.pieces[min(i, len(f.pieces) - 1)]


def reference_hull_positions(T, f):
    """The sorted breakpoints, summand endpoints and comparator meetings:
    the identity off the summands, s.lo and s.hi inside a summand s."""
    base = sorted({F(0), F(1)} | set(f.positions()) | set(T.idempotent_levels()))
    pos = set(base)
    for p, q in zip(base, base[1:]):
        s = reference_gap_summand(T, p, q)
        comps = [affine_piece(1, 0)] if s is None else [const_piece(s.lo), const_piece(s.hi)]
        for comp in comps:
            pos.update(equal_points(reference_piece_over(f, p), comp, p, q))
    return sorted(pos)


# 1/(x + 1) meets the identity at the irrational (sqrt(5) - 1)/2
GOLDEN = pwfn(
    [Breakpoint(F(0), F(1), F(1), F(1)), Breakpoint(F(1), F(1, 2), F(1, 2), F(1, 2))],
    [linfrac(F(0), F(1), F(1), F(1))],
)


def hull_walk_inputs(T, rng):
    fs = [random_pwfn(rng) for _ in range(3)] + [GOLDEN]
    fs += [random_lower(T, rng), random_upper(T, rng)] + flat_candidates(T, rng, 2)
    mutants = (mutated_flat(T, rng, rule) for rule in ("F1", "F2", "F3"))
    return fs + [m for m in mutants if m is not None]


@pytest.mark.parametrize("draw", [random_tnorm, tnorm_over_997], ids=lambda d: d.__name__)
def test_hull_walk_matches_the_reference(draw):
    """One pass gives the positions, values, hulls, gap pieces, gap
    midpoints with their values and hulls, and gap summands that sorting
    the positions and looking each up again gives, and refuses an
    irrational meeting exactly when that route does."""
    seen = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        T = draw(rng)
        ends = set(T.idempotent_levels())
        seen["glued summands"] += any(a.hi == b.lo for a, b in zip(T.summands, T.summands[1:]))
        for f in hull_walk_inputs(T, rng):
            xs = f.positions()
            seen["breakpoint on a summand endpoint"] += bool(ends & set(xs[1:-1]))
            try:
                ref = reference_hull_positions(T, f)
            except ExactnessError:
                with pytest.raises(ExactnessError):
                    hull_walk(T, f)
                seen["refusal"] += 1
                continue
            points, gaps = hull_walk(T, f)
            assert [c for c, *_ in points] == ref
            for c, fc, lo, hi in points:
                hull = T.idem_hull(c)
                assert (fc, lo, hi) == (f.eval(c), hull.lo, hull.hi)
                if c not in ends and c not in xs:
                    seen["root inside a summand" if lo < hi else "root on an idempotent gap"] += 1
            assert [(p, q) for *_, p, q, _ in gaps] == list(zip(ref, ref[1:]))
            for m, fm, lo, hi, p, q, piece in gaps:
                s, hull = reference_gap_summand(T, p, q), T.idem_hull(m)
                assert piece == reference_piece_over(f, p)
                assert (m, fm, lo, hi) == ((p + q) / 2, f.eval(m), hull.lo, hull.hi)
                assert (lo, hi) == ((s.lo, s.hi) if s else (m, m))
                if s is not None and {p, q}.isdisjoint(ends | set(xs)):
                    seen["summand gap cut at both s.lo and s.hi"] += 1
    assert len(seen) == 6 and min(seen.values()) > 0, seen


def test_holding_inputs_need_no_hull_lookup(monkeypatch):
    """The checkers and k_set read every hull from the walk, and so do the
    L2, U2 and F2 violation reports: none looks a point's hull up."""
    rng = random.Random(17)
    cases = []
    for fam in range(16):
        T = random_tnorm(rng) if fam % 2 else tnorm_over_997(rng)
        cases.append((T, random_lower(T, rng), random_upper(T, rng), flat_candidates(T, rng, 2)))
    rng = random.Random(18)
    violations = []
    for fam in range(16):
        T = random_tnorm(rng) if fam % 2 else tnorm_over_997(rng)
        fs = [(check_lower_set, monotone_mesh(T, rng, False))]
        fs += [(check_upper_set, monotone_mesh(T, rng, True))]
        fs += [(check_flat, mutated_flat(T, rng, "F2"))]
        violations += [(check, T, f, check(T, f)) for check, f in fs if f is not None]
    violations = [v for v in violations if v[3].rule in ("L2", "U2", "F2")]
    assert {rep.rule for *_, rep in violations} == {"L2", "U2", "F2"}

    def lookup(self, c):
        raise AssertionError("per-point hull lookup")

    monkeypatch.setattr(OrdinalSumTNorm, "idem_hull", lookup)
    for T, phi, psi, flats in cases:
        assert check_lower_set(T, phi).holds and check_upper_set(T, psi).holds
        for f in flats:
            assert check_flat(T, f).holds
            assert k_set(T, f).intervals
    for check, T, f, rep in violations:
        assert check(T, f) == rep


def test_gap_readers_take_each_gap_from_the_walk(monkeypatch):
    """Given a prebuilt walk of a holding set, the L2/U2 report and F2
    evaluate no piece at a gap midpoint: the walk already read f there."""
    rng = random.Random(19)
    cases = []
    for fam in range(16):
        T = random_tnorm(rng) if fam % 2 else tnorm_over_997(rng)
        cases += [(T, f, True) for f in [random_lower(T, rng), *flat_candidates(T, rng, 2)]]
        cases.append((T, random_upper(T, rng), False))
    runs = []
    for T, f, lower in cases:
        assert (check_lower_set if lower else check_upper_set)(T, f).holds
        walk = hull_walk(T, f)
        runs.append((T, f, lower, walk, lower and _check_f2(T, f, walk).holds))
    calls, read = [], Counter()
    call = LinFrac.__call__

    def recorded(piece, x):
        calls.append(x)
        return call(piece, x)

    monkeypatch.setattr(LinFrac, "__call__", recorded)
    for T, f, lower, walk, f2_holds in runs:
        points = walk[0]
        mids = {(a + b) / 2 for (a, *_), (b, *_) in zip(points, points[1:])}
        calls.clear()
        assert _floor_report(*walk, lower) is None
        if f2_holds:
            assert _check_f2(T, f, walk).holds
            read["F2"] += 1
        assert mids.isdisjoint(calls), (T.describe(), f)
        read["gaps"] += len(mids)
        calls.clear()
        hull_walk(T, f)  # the recording sees the walk read every midpoint
        assert mids <= set(calls)
    assert read["F2"] >= 40 and read["gaps"] >= 200, read


def test_hull_walk_meets_the_identity_in_closed_form(monkeypatch):
    """The walk solves an identity meeting from the piece's coefficients and
    takes each cut from its summand index: it never calls the general root
    analysis _meets, nor T.idempotent_levels().  Its refusal keeps the
    message of the reference equal_points."""
    pwfn_module = importlib.import_module("qflat.pwfn")
    identity = affine_piece(1, 0)
    with pytest.raises(ExactnessError) as want:
        equal_points(GOLDEN.pieces[0], identity, F(0), F(1))
    rng = random.Random(19)
    cases = []
    for fam in range(16):
        T = random_tnorm(rng) if fam % 2 else tnorm_over_997(rng)
        cases += [(T, f) for f in hull_walk_inputs(T, rng)]

    def forbidden(*args):
        raise AssertionError("general meeting or level lookup inside hull_walk")

    monkeypatch.setattr(pwfn_module, "_meets", forbidden)
    monkeypatch.setattr(OrdinalSumTNorm, "idempotent_levels", forbidden)
    with pytest.raises(ExactnessError) as got:
        hull_walk(GODEL, GOLDEN)
    assert str(got.value) == str(want.value) == "irrational piece equality inside (0, 1)"
    seen = Counter()
    for T, f in cases:
        try:
            points, _ = hull_walk(T, f)
        except ExactnessError as exc:
            assert str(exc).startswith("irrational piece equality inside (")
            seen["refusal"] += 1
            continue
        xs = set(f.positions()) | {e for s in T.summands for e in (s.lo, s.hi)}
        seen["identity meeting"] += sum(lo == hi and c not in xs for c, _, lo, hi in points)
    assert min(seen.values()) > 0 and len(seen) == 2, seen


def monotone_mesh(T, rng, increasing):
    """Chords or steps through sorted random values on the summand endpoints
    and a few random points: a monotone function no law was asked to hold."""
    xs = sorted({F(0), F(1)} | set(T.idempotent_levels()) | {random_rat(rng) for _ in range(3)})
    vals = sorted((random_rat(rng) for _ in xs), reverse=not increasing)
    if rng.random() < 0.5:
        return pwfn([Breakpoint(x, v, v, v) for x, v in zip(xs, vals)])
    steps = [vals[0]] + vals
    return pwfn([Breakpoint(x, u, v, v) for x, u, v in zip(xs, steps, vals)])


def test_checker_identity_hash():
    """Every check_lower_set and check_upper_set outcome on seeds 0-29, both
    draws, over the hull-walk inputs, two monotone meshes and the frame
    inputs of every summand: holds, rule, detail and exact witness (or the
    refusal), serialized by repr and hashed.  The verify stdout prints no
    lower- or upper-set witness, so this digest is what pins them."""
    rows, rules = [], Counter()
    for seed in range(30):
        for draw in (random_tnorm, tnorm_over_997):
            rng = random.Random(seed)
            T = draw(rng)
            fs = hull_walk_inputs(T, rng) + [monotone_mesh(T, rng, up) for up in (False, True)]
            for s, lower in ((s, lower) for s in T.summands for lower in (True, False)):
                fs += frame_inputs(T, s, rng, lower)
            for f in fs:
                for check in (check_lower_set, check_upper_set):
                    try:
                        rep = check(T, f)
                    except ExactnessError:
                        rows.append("ExactnessError")
                        continue
                    rows.append((rep.holds, rep.rule, rep.detail, rep.witness))
                    rules[rep.rule or "HOLDS"] += 1
    assert set(rules) == {"HOLDS", "L1", "L2", "L3", "L4", "U1", "U2", "U3"}, rules
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert len(rows) == 3110
    assert digest == "35d283148a6dda6b167fb8cdd8f6142d71f09afd804c8f88264730f6f9092ad8"


def test_frames_never_see_a_value_below_their_floor(monkeypatch):
    """L3/U3 check no floor: after L1 and L4 (lower) or U1 (upper), f(lo) >= lo
    leaves every value and one-sided limit of f on the frame [lo, hi] at
    lo or above.  Every frame that the checkers scan on the population of
    test_checker_identity_hash bears this out."""
    scanned = Counter()
    frame_report = order_module._frame_report

    def checked(T, f, s, lower, caps):
        if f.eval(s.lo) >= s.lo:
            window = f.restrict(s.lo, s.hi)
            values = [v for bp in window.breakpoints for v in (bp.left, bp.at, bp.right)]
            assert min(values) >= s.lo, (T.describe(), f, s)
            scanned[s.kind, lower] += 1
        return frame_report(T, f, s, lower, caps)

    monkeypatch.setattr(order_module, "_frame_report", checked)
    for seed in range(30):
        for draw in (random_tnorm, tnorm_over_997):
            rng = random.Random(seed)
            T = draw(rng)
            fs = hull_walk_inputs(T, rng) + [monotone_mesh(T, rng, up) for up in (False, True)]
            for s, lower in ((s, lower) for s in T.summands for lower in (True, False)):
                fs += frame_inputs(T, s, rng, lower)
            for f in fs:
                for check in (check_lower_set, check_upper_set):
                    try:
                        check(T, f)
                    except ExactnessError:
                        pass
    L, P = SummandKind.LUKASIEWICZ, SummandKind.PRODUCT
    assert scanned == {(L, True): 563, (P, True): 427, (L, False): 485, (P, False): 345}


# -- the closed-form gap supremum against the polynomial route ----------------


def p_trim(p):
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return tuple(q)


def p_add(p, q):
    n = max(len(p), len(q))
    return p_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def p_sub(p, q):
    return p_add(p, tuple(-c for c in q))


def p_mul(p, q):
    if not p or not q:
        return ()
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return p_trim(out)


def p_scale(p, k):
    return p_trim([c * k for c in p])


def p_eval(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def p_deriv(p):
    return p_trim([i * c for i, c in enumerate(p)][1:])


def linfrac_ratfunc(piece):
    return p_trim((piece.b, piece.a)), p_trim((piece.d, piece.c))


def reference_sup_ratfunc(num, den, u, v):
    """Sup of N/D over [u, v] with W = N'D - ND' built by polynomial algebra."""
    num, den = p_trim(num), p_trim(den)
    if not num:
        return SupResult(F(0), True)

    def h(x):
        return p_eval(num, x) / p_eval(den, x)

    w = p_sub(p_mul(p_deriv(num), den), p_mul(num, p_deriv(den)))
    if not w:
        return SupResult(h(u), True)
    C, B, A = (*w, F(0), F(0))[:3]
    cands = [(h(u), False), (h(v), False)]
    for r, slope in quad_roots(A, B, C, u, v):
        if r is not None:
            cands.append((h(r), True))
        elif slope < 0:
            raise ExactnessError("irrational critical point inside a tensor piece")
    best = max(val for val, _ in cands)
    return SupResult(best, any(flag for val, flag in cands if val == best))


def reference_conj_gap_sup(T, fp, gp, u, v):
    """The summand branch's integrand as one polynomial quotient, lo kept inside."""
    mid = (u + v) / 2
    fm, gm = fp(mid), gp(mid)
    s = next((s for s in T.summands if s.lo <= fm <= s.hi and s.lo <= gm <= s.hi), None)
    if s is None:
        return "min", _min_gap_sup(fp, gp, u, v)
    nf, df = linfrac_ratfunc(fp)
    ng, dg = linfrac_ratfunc(gp)
    if s.kind is SummandKind.LUKASIEWICZ:
        out = reference_sup_ratfunc(p_add(p_mul(nf, dg), p_mul(ng, df)), p_mul(df, dg), u, v)
        val = out.value - s.hi
        return s.kind, SupResult(val, out.attained) if val > s.lo else SupResult(s.lo, True)
    lo, hi = s.lo, s.hi
    num = p_add(
        p_mul(p_sub(nf, p_scale(df, lo)), p_sub(ng, p_scale(dg, lo))),
        p_scale(p_mul(df, dg), lo * (hi - lo)),
    )
    return s.kind, reference_sup_ratfunc(num, p_scale(p_mul(df, dg), hi - lo), u, v)


def level_gaps(T, f, g):
    """(fp, gp, u, v) of every gap of f and g refined together and cut where
    either piece meets an idempotent level, so each gap keeps one branch."""
    pos = sorted(set(f.positions()) | set(g.positions()))
    f, g = f.refine(pos), g.refine(pos)
    for i, (fp, gp) in enumerate(zip(f.pieces, g.pieces)):
        u, v = pos[i], pos[i + 1]
        cuts = {x for p in (fp, gp) for lv in T.idempotent_levels() for x in [_solve_eq(p, lv)]}
        xs = [u, *sorted(x for x in cuts if x is not None and u < x < v), v]
        for p, q in zip(xs, xs[1:]):
            yield fp, gp, p, q


def gap_sup_operands(T, rng):
    """Lower and upper sets, flat candidates, principals and their min, and
    the frame meshes of each summand, whose hyperbolic arcs bend both ways."""
    fs = [random_lower(T, rng), random_upper(T, rng), flat_candidates(T, rng, 1)[0]]
    fs += [principal_lower(T, random_rat(rng)), principal_upper(T, random_rat(rng))]
    try:
        fs.append(pointwise_min(fs[3], fs[4]))
    except ExactnessError:  # an irrational crossing: no such function
        pass
    for s in T.summands:
        fs += [next(frame_inputs(T, s, rng, lower)) for lower in (True, False)]
    return fs


def test_conj_gap_sup_matches_the_polynomial_route():
    """Each gap supremum built from the closed-form products, with the
    product branch's lo shift applied after the supremum, equals the one
    built by generic polynomial algebra, and refuses exactly when it does."""
    seen = Counter()
    for seed in range(16):
        rng = random.Random(seed)
        T = (random_tnorm, tnorm_over_997)[seed % 2](rng)
        fs = gap_sup_operands(T, rng)
        for f in fs:
            for g in fs:
                for fp, gp, u, v in level_gaps(T, f, g):
                    try:
                        branch, want = reference_conj_gap_sup(T, fp, gp, u, v)
                    except ExactnessError:
                        with pytest.raises(ExactnessError):
                            _conj_gap_sup(T, fp, gp, u, v)
                        seen["refusal"] += 1
                        continue
                    assert _conj_gap_sup(T, fp, gp, u, v) == want, (T.describe(), fp, gp, u, v)
                    seen[branch] += 1
                    ends = max(T.conj(fp(x), gp(x)) for x in (u, v))
                    if branch != "min" and want.attained and want.value > ends:
                        seen["interior maximum"] += 1
    assert len(seen) == 5 and min(seen.values()) > 0, seen
