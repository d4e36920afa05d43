import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest

from qflat import GODEL, LUKASIEWICZ, PRODUCT, Breakpoint, DomainError, PwFn, ideal, pwfn
from qflat.ideal import (
    NetSpec,
    check_flat,
    flat_conditions,
    frame_principal_lower,
    is_inhabited,
    k_set,
    net_ideal,
    pasted_flat,
    restrict_ideal,
    tensor_via_k,
    witness_upper_pair,
)
from qflat.oracle import random_rat, random_tnorm
from qflat.order import check_lower_set, lower_piece, principal_lower, principal_upper, tensor
from qflat.pwfn import const_piece, pointwise_max, pointwise_min
from qflat.rat import ONE, ZERO
from qflat.report import TensorWitness

from conftest import grid_tensor, tnorm_over_997


def step(at_zero, tail):
    return pwfn(
        [Breakpoint(F(0), at_zero, at_zero, tail), Breakpoint(F(1), tail, tail, tail)]
    )


class TestInhabited:
    def test_full_at_zero(self):
        assert is_inhabited(step(F(1), F(3, 5))).holds

    def test_constant_below_one(self):
        rep = is_inhabited(PwFn.constant(F(9, 10)))
        assert not rep.holds
        assert rep.witness is not None

    def test_limit_only_sup_counts(self):
        f = pwfn(
            [
                Breakpoint(F(0), F(1, 2), F(1, 2), F(1, 2)),
                Breakpoint(F(1, 2), F(1), F(1, 4), F(1, 4)),
                Breakpoint(F(1), F(1, 4), F(1, 4), F(1, 4)),
            ]
        )
        rep = is_inhabited(f)
        assert rep.holds and "attained=False" in rep.detail


class TestCheckFlat:
    def test_goedel_principal(self):
        assert check_flat(GODEL, principal_lower(GODEL, F(1, 2))).holds

    def test_f2_worked_example(self, t4):
        phi = step(F(1), F(3, 5))
        rep = check_flat(t4, phi)
        assert not rep.holds and rep.rule == "F2"
        assert isinstance(rep.witness, TensorWitness)
        w = rep.witness
        assert w.joint < min(w.sep1, w.sep2)

    def test_constant_fails_f1(self, t4):
        rep = check_flat(t4, PwFn.constant(F(2, 5)))
        assert not rep.holds and rep.rule == "F1"

    def test_non_lower_set_reported_with_l_rule(self, t4):
        rep = check_flat(t4, PwFn.identity())
        assert not rep.holds and rep.rule.startswith("L")

    def test_product_principals_random(self):
        rng = random.Random(17)
        for _ in range(100):
            x0 = F(rng.randint(0, 256), 256)
            phi = principal_lower(PRODUCT, x0)
            assert check_flat(PRODUCT, phi).holds

    def test_min_case_equivalence(self):
        # under min, flat iff lower set with full membership at 0
        rng = random.Random(18)
        from qflat.oracle import random_lower, random_pwfn

        for i in range(120):
            f = random_pwfn(rng) if i % 2 else random_lower(GODEL, rng)
            flat = check_flat(GODEL, f).holds
            expected = check_lower_set(GODEL, f).holds and f.eval(F(0)) == 1
            assert flat == expected

    def test_single_summand_flat_iff_principal(self):
        rng = random.Random(19)
        from qflat.oracle import random_lower

        for T in (LUKASIEWICZ, PRODUCT):
            for i in range(40):
                f = random_lower(T, rng)
                flat = check_flat(T, f).holds
                is_principal = f == principal_lower(T, f.eval(F(1)))
                assert flat == is_principal


class TestFlatConditions:
    def test_rules_evaluated_independently(self, t4):
        phi = step(F(1), F(3, 5))
        reps = flat_conditions(t4, phi)
        assert reps["F1"].holds
        assert not reps["F2"].holds
        assert not reps["F3"].holds  # the same candidate also breaks F3

    def test_non_lower_set_is_a_domain_error(self, t4):
        def drop(at, tail):  # 1 on [0, at], then the constant tail
            return pwfn(
                [
                    Breakpoint(F(0), ONE, ONE, ONE),
                    Breakpoint(at, ONE, ONE, tail),
                    Breakpoint(ONE, tail, tail, tail),
                ]
            )

        cases = {
            "L1": PwFn.identity(),
            "L2": pwfn([Breakpoint(F(0), ONE, ONE, ONE), Breakpoint(ONE, ZERO, ZERO, ZERO)]),
            "L3": drop(F(3, 4), F(11, 20)),
            "L4": drop(F(3, 4), F(1, 10)),
        }
        for rule, phi in cases.items():
            assert check_lower_set(t4, phi).rule == rule
            with pytest.raises(DomainError, match=f"{rule} fails"):
                flat_conditions(t4, phi)


class TestWitnessPair:
    def test_worked_counterexample_values(self, t4):
        phi = step(F(1), F(3, 5))
        psi1, psi2 = witness_upper_pair(t4, phi, F(3, 10))
        assert psi1 == PwFn.constant(F(3, 5))
        assert psi2 == principal_upper(t4, F(3, 10))
        meet = pointwise_min(psi1, psi2)
        assert tensor(t4, phi, meet) == (F(13, 25), True)
        assert tensor(t4, phi, psi1).value == F(3, 5)
        assert tensor(t4, phi, psi2).value == F(3, 5)
        # cross-checked by plain grid brute force
        assert grid_tensor(t4, phi, meet, 200) == F(13, 25)
        assert grid_tensor(t4, phi, psi1, 200) == F(3, 5)

    def test_flat_phi_pair_keeps_equality(self, t4):
        phi = principal_lower(t4, F(2, 5))
        psi1, psi2 = witness_upper_pair(t4, phi, F(3, 10))
        joint = tensor(t4, phi, pointwise_min(psi1, psi2)).value
        assert joint == min(tensor(t4, phi, psi1).value, tensor(t4, phi, psi2).value)

    def test_zero_point_degenerates(self, t4):
        phi = principal_lower(t4, F(2, 5))
        psi1, psi2 = witness_upper_pair(t4, phi, F(0))
        assert psi2 == PwFn.constant(F(1))
        assert (
            tensor(t4, phi, pointwise_min(psi1, psi2)) == tensor(t4, phi, psi1)
        )


class TestRestrictIdeal:
    def test_top_ideal_restricts_to_frame_top(self, t4):
        sig = restrict_ideal(t4, PwFn.constant(F(1)), F(3, 10))
        assert sig == PwFn.constant(F(1, 2), F(1, 4), F(1, 2))

    def test_principal_restricts_to_frame_principal(self, t4):
        sig = restrict_ideal(t4, principal_lower(t4, F(2, 5)), F(3, 10))
        assert sig == frame_principal_lower(t4, t4.summands[0], F(2, 5))
        sig = restrict_ideal(t4, principal_lower(t4, F(3, 4)), F(7, 10))
        assert sig == frame_principal_lower(t4, t4.summands[1], F(3, 4))

    def test_restriction_coherence(self, t4, families):
        rng = random.Random(23)
        from qflat.oracle import flat_candidates

        for T in families:
            if not T.summands:
                continue
            for phi in flat_candidates(T, rng, 6):
                for s in T.summands:
                    mid = (s.lo + s.hi) / 2
                    if phi.eval(s.lo) <= s.lo:
                        continue
                    sig = restrict_ideal(T, phi, mid)
                    b = min(s.hi, phi.eval(s.hi))
                    assert sig == frame_principal_lower(T, s, b)

    def test_preconditions(self, t4):
        with pytest.raises(DomainError):
            restrict_ideal(t4, PwFn.constant(F(1)), F(1, 8))  # idempotent point
        with pytest.raises(DomainError):
            restrict_ideal(t4, principal_lower(t4, F(1, 8)), F(3, 10))  # premise fails

    def test_frame_bottom_value_is_frame_unit(self, t4):
        sig = restrict_ideal(t4, PwFn.constant(F(1)), F(7, 10))
        assert sig.eval(F(1, 2)) == F(1)


class TestNetIdeal:
    def test_goedel_open_net(self):
        net = NetSpec((F(1, 4), F(3, 8), F(7, 16)), F(1, 2), False)
        phi = net_ideal(GODEL, net)
        assert phi.eval(F(49, 100)) == 1
        assert phi.eval(F(1, 2)) == F(1, 2)
        assert phi.eval(F(3, 4)) == F(1, 2)
        assert phi != principal_lower(GODEL, F(1, 2))

    def test_attained_net_is_principal(self, t4):
        net = NetSpec((F(1, 8), F(2, 8)), F(3, 8), True)
        assert net_ideal(t4, net) == principal_lower(t4, F(3, 8))

    def test_lukasiewicz_open_net_is_principal(self):
        net = NetSpec((F(1, 4),), F(1, 2), False)
        assert net_ideal(LUKASIEWICZ, net) == principal_lower(LUKASIEWICZ, F(1, 2))

    def test_net_ideals_are_flat_lower_sets(self, families):
        rng = random.Random(25)
        for T in families:
            for _ in range(8):
                limit = F(rng.randint(1, 24), 24)
                pts = tuple(sorted({limit * F(k, 9) for k in (2, 5, 7)} - {limit}))
                attained = rng.random() < 0.5
                phi = net_ideal(T, NetSpec(pts, limit, attained))
                assert check_lower_set(T, phi).holds
                assert check_flat(T, phi).holds

    def test_validation(self):
        with pytest.raises(DomainError):
            NetSpec((), F(1, 2), False)
        with pytest.raises(DomainError):
            NetSpec((F(1, 2), F(1, 4)), F(3, 4), False)
        with pytest.raises(DomainError):
            NetSpec((F(1, 2),), F(1, 2), False)
        with pytest.raises(DomainError):
            NetSpec((F(1, 2),), F(1, 4), True)


class TestPastedFlat:
    def test_pasted_is_flat_and_not_principal(self, t4):
        s = t4.summands[0]
        phi = pasted_flat(t4, s, F(3, 8))
        assert check_flat(t4, phi).holds
        assert phi != principal_lower(t4, F(3, 8))
        assert phi.eval(F(5, 16)) == F(1, 2)  # frame top between lo and b


# The four constructors as they were written before they shared
# order.lower_profile, kept as references for it.


def ref_principal_lower(T, x0):
    if x0 == ONE:
        return PwFn.constant(ONE)
    s = next((s for s in T.summands if s.lo <= x0 < s.hi), None)
    pts, pcs = [], []
    if s is None:
        if x0 > 0:
            pts.append(Breakpoint(ZERO, ONE, ONE, ONE))
            pcs.append(const_piece(ONE))
        pts.append(Breakpoint(x0, ONE, ONE, x0))
        pcs.append(const_piece(x0))
        pts.append(Breakpoint(ONE, x0, x0, x0))
    else:
        hi = s.hi
        piece = lower_piece(s, x0)
        if x0 > 0:
            pts.append(Breakpoint(ZERO, ONE, ONE, ONE))
            pcs.append(const_piece(ONE))
        pts.append(Breakpoint(x0, ONE, ONE, piece(x0)))
        pcs.append(piece)
        if hi < ONE:
            pts.append(Breakpoint(hi, x0, x0, x0))
            pcs.append(const_piece(x0))
        pts.append(Breakpoint(ONE, x0, x0, x0))
    return pwfn(pts, pcs)


def ref_net_ideal(T, net):
    if net.attained:
        return ref_principal_lower(T, net.limit)
    x = net.limit
    s = next((s for s in T.summands if s.lo < x <= s.hi), None)
    pts = [Breakpoint(ZERO, ONE, ONE, ONE)]
    pcs = [const_piece(ONE)]
    if s is None:
        pts.append(Breakpoint(x, ONE, x, x))
        if x < ONE:
            pcs.append(const_piece(x))
            pts.append(Breakpoint(ONE, x, x, x))
        return pwfn(pts, pcs)
    hi = s.hi
    piece = lower_piece(s, x)
    pts.append(Breakpoint(x, ONE, hi, piece(x)))
    if x < hi:
        pcs.append(piece)
        pts.append(Breakpoint(hi, x, x, x))
    if hi < ONE:
        pcs.append(const_piece(x))
        pts.append(Breakpoint(ONE, x, x, x))
    return pwfn(pts, pcs)


def ref_frame_principal_lower(T, s, b):
    lo, hi = s.lo, s.hi
    if not lo <= b <= hi:
        raise DomainError("principal point outside the frame")
    if b == hi:
        return PwFn.constant(hi, lo, hi)
    piece = lower_piece(s, b)
    pts, pcs = [], []
    if b > lo:
        pts.append(Breakpoint(lo, hi, hi, hi))
        pcs.append(const_piece(hi))
    pts.append(Breakpoint(b, hi, hi, piece(b)))
    pcs.append(piece)
    pts.append(Breakpoint(hi, b, b, b))
    return pwfn(pts, pcs)


def ref_pasted_flat(T, s, b):
    lo, hi = s.lo, s.hi
    fp = ref_frame_principal_lower(T, s, b)
    pts, pcs = [], []
    if lo > 0:
        pts.append(Breakpoint(ZERO, ONE, ONE, ONE))
        pcs.append(const_piece(ONE))
    pts.append(Breakpoint(lo, ONE, ONE, fp.breakpoints[0].right))
    pts.extend(fp.breakpoints[1:])
    pcs.extend(fp.pieces)
    if hi < ONE:
        last = pts.pop()
        pts.append(Breakpoint(hi, last.left, last.at, last.at))
        pcs.append(const_piece(b))
        pts.append(Breakpoint(ONE, b, b, b))
    return pwfn(pts, pcs)


@pytest.mark.parametrize("draw", ["random_tnorm", "tnorm_over_997"])
def test_profile_constructors_match_the_references(draw):
    """principal_lower, net_ideal, frame_principal_lower and pasted_flat all
    paste through order.lower_profile; each returns exactly the PwFn its
    reference builds, at 0, 1, every summand endpoint (glued ones included),
    frame ends and interior points, and random rationals."""
    rng = random.Random(14)
    seen = {"glued": 0, "idempotent limit": 0, "limit at lo": 0, "limit at hi": 0}
    for _ in range(40):
        T = random_tnorm(rng) if draw == "random_tnorm" else tnorm_over_997(rng)
        ends = {e for s in T.summands for e in (s.lo, s.hi)}
        seen["glued"] += len(ends) < 2 * len(T.summands)
        points = sorted(ends | {ZERO, ONE} | {random_rat(rng) for _ in range(4)})
        for x in points:
            assert principal_lower(T, x) == ref_principal_lower(T, x), (T.describe(), x)
            if x == 0:
                continue
            for attained in (True, False):
                net = NetSpec((x / 2,), x, attained)
                assert net_ideal(T, net) == ref_net_ideal(T, net), (T.describe(), x)
            seen["idempotent limit"] += T.is_idempotent(x) and x not in ends
            seen["limit at lo"] += any(x == s.lo for s in T.summands)
            seen["limit at hi"] += any(x == s.hi for s in T.summands)
        for s in T.summands:
            inner = {s.lo + (s.hi - s.lo) * F(k, 7) for k in (1, 3, 6)}
            for b in sorted({s.lo, s.hi} | inner):
                got = frame_principal_lower(T, s, b)
                assert got == ref_frame_principal_lower(T, s, b), (T.describe(), b)
                assert pasted_flat(T, s, b) == ref_pasted_flat(T, s, b), (T.describe(), b)
            for b in (s.lo / 2, (s.hi + 1) / 2):
                if not s.lo <= b <= s.hi:
                    with pytest.raises(DomainError):
                        frame_principal_lower(T, s, b)
                    with pytest.raises(DomainError):
                        pasted_flat(T, s, b)
    assert all(seen.values()), seen


class TestKSet:
    def test_goedel_principal(self):
        K = k_set(GODEL, principal_lower(GODEL, F(1, 2)))
        assert K.describe() == "[0, 1/2]"

    def test_top_ideal(self, t4):
        assert k_set(t4, PwFn.constant(F(1))).describe() == "[0, 1]"

    def test_two_summand_principal(self, t4):
        K = k_set(t4, principal_lower(t4, F(1, 4)))
        assert K.describe() == "[0, 1/4]"

    def test_reduction_matches_tensor(self, t4, families):
        rng = random.Random(26)
        from qflat.oracle import flat_candidates, random_upper

        for T in families:
            for phi in flat_candidates(T, rng, 4):
                for _ in range(3):
                    psi = random_upper(T, rng)
                    assert tensor_via_k(T, phi, psi) == tensor(T, phi, psi).value

    def test_off_the_unit_interval_is_a_domain_error(self, t4):
        phi = PwFn.constant(F(3, 4), F(1, 4), F(1, 2))
        with pytest.raises(DomainError):
            k_set(t4, phi)
        with pytest.raises(DomainError):
            tensor_via_k(t4, phi, PwFn.constant(F(1)))

    def test_examples_cross_checked_by_grid(self, t4):
        phi = principal_lower(GODEL, F(1, 2))
        assert tensor_via_k(GODEL, phi, PwFn.identity()) == F(1, 2)
        phi = principal_lower(t4, F(1, 4))
        assert tensor_via_k(t4, phi, PwFn.constant(F(1))) == 1
        assert grid_tensor(t4, phi, PwFn.constant(F(1))) == 1


@pytest.mark.parametrize("draw", ["random_tnorm", "tnorm_over_997"])
def test_lattice_combinations_of_lower_sets_decide_exactly(draw):
    """Pairwise min and max of principals, constants, random lower sets and
    flats, check_flat on them and their tensors with random upper sets never
    raise ExactnessError: every crossing and critical point stays rational.
    The F3 mutant of mutated_flat stays out of the set, since its pieces can
    cross others at irrational points."""
    from qflat.oracle import flat_candidates, random_lower, random_rat, random_tnorm, random_upper

    rng = random.Random(61)
    combos = 0
    for _ in range(30):
        T = random_tnorm(rng) if draw == "random_tnorm" else tnorm_over_997(rng)
        lowers = [principal_lower(T, random_rat(rng)), PwFn.constant(random_rat(rng))]
        lowers += [random_lower(T, rng), *flat_candidates(T, rng, 1)]
        for f, g in combinations(lowers, 2):
            for h in (pointwise_min(f, g), pointwise_max(f, g)):
                check_flat(T, h)
                tensor(T, h, random_upper(T, rng))
                combos += 1
    assert combos == 30 * 12


def test_check_flat_walks_once_and_caps_each_frame_once(monkeypatch):
    """check_flat reads F2 from the lower-set check's hull walk and F3 from
    its frame caps: one walk of phi, and at most one cap per summand."""
    from qflat import order
    from qflat.oracle import flat_candidates, mutated_flat

    rng = random.Random(43)
    cases = []
    for fam in range(12):
        T = random_tnorm(rng) if fam % 2 else tnorm_over_997(rng)
        cases += [(T, phi) for phi in flat_candidates(T, rng, 2)]
        mutants = (mutated_flat(T, rng, rule) for rule in ("F2", "F3"))
        cases += [(T, phi) for phi in mutants if phi is not None]
    calls = Counter()
    walk, cap = order.hull_walk, order.restricted_cap

    def counted_walk(*args):
        calls["walk"] += 1
        return walk(*args)

    def counted_cap(f, s):
        calls[s] += 1
        return cap(f, s)

    for module in (order, ideal):
        monkeypatch.setattr(module, "hull_walk", counted_walk)
        monkeypatch.setattr(module, "restricted_cap", counted_cap)
    rules = Counter()
    for T, phi in cases:
        calls.clear()
        rules[check_flat(T, phi).rule or "HOLDS"] += 1
        assert calls.pop("walk") == 1
        assert set(calls.values()) <= {1}, calls
    assert set(rules) == {"HOLDS", "F2", "F3"}, rules
