import bisect
import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from qflat import GODEL, LUKASIEWICZ, PRODUCT, Breakpoint, PwFn, make_tnorm, pwfn
from qflat.ideal import check_flat
from qflat.oracle import (
    GridSpec,
    TrialConfig,
    _grid_values,
    _monotone_mesh,
    _repaired_upper,
    equivalence_harness,
    falsify_flat,
    falsify_lower_set,
    falsify_upper_set,
    flat_candidates,
    lemma37_suite,
    mutated_flat,
    random_lower,
    random_pwfn,
    random_tnorm,
    random_upper,
    scaled_pair_ops,
    verify_adjunction,
    verify_sandwich,
)
from qflat.order import check_lower_set, check_upper_set, principal_lower
from qflat.pwfn import linfrac
from qflat.rat import ONE, ZERO, DomainError
from qflat.report import CheckReport, PointWitness, violated
from qflat.tnorms import OrdinalSumTNorm, SummandKind

from conftest import tnorm_over_997


def fraction_adjunction(T, grid):
    """Reference: the adjunction verifier with every bisect on Fractions."""
    pts = grid.points(T)
    on_grid = set(pts)
    n = len(pts)
    for x in pts:
        conj_row = [T.conj(x, y) for y in pts]
        res_row = [T.residuum(x, z) for z in pts]
        for j, y in enumerate(pts):
            kc = bisect.bisect_left(pts, conj_row[j])
            kr = bisect.bisect_left(res_row, y)
            if kc != kr:
                k = min(kc, kr)
                z = pts[k]
                return violated(
                    "DEF",
                    PointWitness(
                        x,
                        (
                            ("x", x),
                            ("y", y),
                            ("z", z),
                            ("conj(x,y)", conj_row[j]),
                            ("residuum(x,z)", res_row[k]),
                        ),
                    ),
                    detail="adjunction biconditional fails",
                )
        for k, z in enumerate(pts):
            j = bisect.bisect_right(conj_row, z) - 1
            if j >= 0:
                gm = pts[j]
                if gm > res_row[k] or (res_row[k] in on_grid and gm != res_row[k]):
                    return violated(
                        "DEF",
                        PointWitness(
                            x, (("y", z), ("grid_max", gm), ("residuum", res_row[k]))
                        ),
                        detail="grid residuum disagrees with closed form",
                    )
    law = fraction_laws(T, pts)
    if law is not None:
        return law
    return CheckReport(True, detail=f"adjunction exact on {n}^3 grid triples")


def fraction_laws(T, pts):
    """Reference: the first exact law broken, row by row, by a plain scan."""
    for x in pts:
        for law, bad in (
            ("conj(1, y) = y", lambda y: x == 1 and T.conj(x, y) != y),
            ("conj(0, y) = 0", lambda y: x == 0 and T.conj(x, y) != 0),
            ("conj(x, y) = conj(y, x)", lambda y: y <= x and T.conj(x, y) != T.conj(y, x)),
            ("residuum(x, y) = 1 iff x <= y", lambda y: (T.residuum(x, y) == 1) != (x <= y)),
            ("conj(x, 1) = x", lambda y: y == 1 and T.conj(x, y) != x),
            ("conj(c, c) = c", lambda y: y == x and T.is_idempotent(x) and T.conj(x, x) != x),
        ):
            y = next((y for y in pts if bad(y)), None)
            if y is not None:
                values = (
                    ("x", x), ("y", y), ("conj(x,y)", T.conj(x, y)), ("residuum(x,y)", T.residuum(x, y))
                )
                return violated("DEF", PointWitness(x, values), detail=f"law {law} fails")
    return None


def fraction_sandwich(T, grid):
    """Reference: the sandwich verifier over every triple (c, x, y)."""
    pts = grid.points(T)
    idems = [c for c in pts if T.is_idempotent(c)]
    checked = 0
    for c in idems:
        lo_part = [x for x in pts if x <= c]
        hi_part = [y for y in pts if y >= c]
        for x in lo_part:
            for y in hi_part:
                checked += 1
                if T.conj(x, y) != min(x, y):
                    return violated(
                        "DEF",
                        PointWitness(c, (("x", x), ("y", y), ("conj", T.conj(x, y)))),
                        detail="sandwich law fails",
                    )
    return CheckReport(True, detail=f"sandwich exact on {checked} triples")


@dataclass(frozen=True)
class WrongConjAtOnePair(OrdinalSumTNorm):
    """conj(1/3, 1/2) moved by 1/12; every other value is right."""

    def conj(self, x, y):
        good = OrdinalSumTNorm.conj(self, x, y)
        if (x, y) == (F(1, 3), F(1, 2)):
            return good - F(1, 12) if good >= F(1, 12) else good + F(1, 12)
        return good


@dataclass(frozen=True)
class WrongResiduumAtOnePair(OrdinalSumTNorm):
    """residuum(1/3, 2/3) is 2/3 instead of 1; every other value is right."""

    def residuum(self, x, y):
        if (x, y) == (F(1, 3), F(2, 3)):
            return y
        return OrdinalSumTNorm.residuum(self, x, y)


@dataclass(frozen=True)
class WrongCrossResiduum(OrdinalSumTNorm):
    """The cross-summand residuum x -> y = y capped 1/64 too low."""

    def residuum(self, x, y):
        good = OrdinalSumTNorm.residuum(self, x, y)
        if x > y and good == y and y > 0:
            return y - min(y, F(1, 64))
        return good


CORRUPTIONS = (OrdinalSumTNorm, WrongConjAtOnePair, WrongResiduumAtOnePair, WrongCrossResiduum)


def _outcome(rep):
    return rep.holds, rep.rule, rep.detail, rep.witness


class TestVerifiersMatchFractionReference:
    """The integer-keyed verifiers against the Fraction walk they replace."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_families(self, seed):
        rng = random.Random(seed)
        verdicts = set()
        for trial in range(8):
            T = random_tnorm(rng) if trial % 2 else tnorm_over_997(rng)
            T = CORRUPTIONS[trial % 4](T.summands)
            grid = GridSpec(rng.choice((6, 12, 24)))
            for mine, ref in (
                (verify_adjunction, fraction_adjunction),
                (verify_sandwich, fraction_sandwich),
            ):
                rep = mine(T, grid)
                assert _outcome(rep) == _outcome(ref(T, grid)), (T.describe(), mine)
                verdicts.add(rep.holds)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("corrupt", CORRUPTIONS[1:])
    def test_corrupted_tnorms(self, corrupt, t4):
        details = set()
        for base in (GODEL, LUKASIEWICZ, PRODUCT, t4):
            T = corrupt(base.summands)
            for resolution in (12, 24):
                grid = GridSpec(resolution)
                for mine, ref in (
                    (verify_adjunction, fraction_adjunction),
                    (verify_sandwich, fraction_sandwich),
                ):
                    rep = mine(T, grid)
                    assert _outcome(rep) == _outcome(ref(T, grid)), (T.describe(), mine)
                    details.add(rep.detail)
        fails = {
            WrongConjAtOnePair: {"adjunction biconditional fails", "sandwich law fails"},
            WrongResiduumAtOnePair: {"grid residuum disagrees with closed form"},
            WrongCrossResiduum: {"adjunction biconditional fails"},
        }[corrupt]
        assert fails <= details


    def test_grid_residuum_equality_clause(self):
        # two wrong values that pass the biconditional's bisects; only the
        # "closed form on the grid must equal the grid maximum" clause sees them
        @dataclass(frozen=True)
        class TwoWrong(OrdinalSumTNorm):
            def conj(self, x, y):
                return ZERO if (x, y) == (ONE, F(1, 4)) else OrdinalSumTNorm.conj(self, x, y)

            def residuum(self, x, y):
                return ONE if (x, y) == (ONE, ZERO) else OrdinalSumTNorm.residuum(self, x, y)

        T = TwoWrong(GODEL.summands)
        rep = verify_adjunction(T, GridSpec(4))
        assert _outcome(rep) == _outcome(fraction_adjunction(T, GridSpec(4)))
        assert rep.witness == PointWitness(
            ONE, (("y", ZERO), ("grid_max", F(1, 4)), ("residuum", ONE))
        )


class TestVerifyAdjunction:
    def test_plain_lukasiewicz(self):
        assert verify_adjunction(LUKASIEWICZ, GridSpec(100)).holds

    def test_two_summand_with_endpoints(self, t4):
        assert verify_adjunction(t4, GridSpec(100)).holds

    def test_corrupted_residuum_caught(self, t4):
        bad = WrongCrossResiduum(t4.summands)
        rep = verify_adjunction(bad, GridSpec(16))
        assert not rep.holds and rep.witness is not None


def with_conj(base, x, y, value):
    """base with the single value conj(x, y) replaced."""

    @dataclass(frozen=True)
    class Patched(OrdinalSumTNorm):
        def conj(self, a, b):
            return value if (a, b) == (x, y) else OrdinalSumTNorm.conj(self, a, b)

    return Patched(base.summands)


class TestAdjunctionLaws:
    """Wrong values that stay inside their grid cell, seen only by the laws."""

    def test_wrong_unit_value_fails_at_resolution_4(self, t4):
        T = with_conj(t4, ONE, F(3, 4), F(5, 8))
        rep = verify_adjunction(T, GridSpec(4))
        assert not rep.holds and rep.detail == "law conj(1, y) = y fails"
        assert rep.witness == PointWitness(
            ONE,
            (("x", ONE), ("y", F(3, 4)), ("conj(x,y)", F(5, 8)), ("residuum(x,y)", F(3, 4))),
        )

    @pytest.mark.parametrize(
        "x, y, value, law",
        [
            (F(1, 4), F(1, 2), F(1, 8), "conj(x, y) = conj(y, x)"),
            (F(1, 4), ONE, F(1, 8), "conj(x, 1) = x"),
            (F(1, 2), F(1, 2), F(5, 16), "conj(c, c) = c"),
        ],
    )
    def test_each_law_is_named(self, t4, x, y, value, law):
        rep = verify_adjunction(with_conj(t4, x, y, value), GridSpec(4))
        assert not rep.holds and rep.detail == f"law {law} fails"
        assert rep.witness.c in (x, y)

    def test_passing_detail_unchanged(self, t4):
        assert verify_adjunction(t4, GridSpec(4)).detail == "adjunction exact on 5^3 grid triples"


class TestVerifySandwich:
    def test_min_tnorm(self):
        assert verify_sandwich(GODEL, GridSpec(40)).holds

    def test_two_summand(self, t4):
        assert verify_sandwich(t4, GridSpec(60)).holds

    def test_plain_product_boundary_cases(self):
        assert verify_sandwich(PRODUCT, GridSpec(40)).holds

    def test_counts_every_triple(self, t4):
        # 13 points, idempotent at indices 0-3, 6 and 12: sum of (k+1)(13-k)
        rep = verify_sandwich(t4, GridSpec(12))
        assert rep.detail == f"sandwich exact on {13 + 24 + 33 + 40 + 49 + 13} triples"

    def test_corrupted_conj_caught(self, t4):
        # 1/3 lies inside the summand (1/4, 1/2): only c = y = 1/2 covers the pair
        rep = verify_sandwich(WrongConjAtOnePair(t4.summands), GridSpec(12))
        assert not rep.holds and rep.detail == "sandwich law fails"
        assert rep.witness == PointWitness(
            F(1, 2), (("x", F(1, 3)), ("y", F(1, 2)), ("conj", F(1, 4)))
        )


class TestFalsifiers:
    def test_principal_has_no_counterexample(self, t4):
        phi = principal_lower(t4, F(3, 10))
        assert falsify_lower_set(t4, phi, GridSpec(64)).holds

    def test_identity_not_lower_under_goedel(self):
        rep = falsify_lower_set(GODEL, PwFn.identity(), GridSpec(64))
        assert not rep.holds
        w = rep.witness
        lhs = GODEL.conj(PwFn.identity().eval(w.a), GODEL.residuum(w.b, w.a))
        assert lhs > PwFn.identity().eval(w.b)

    def test_l2_violator_found_by_grid(self):
        phi = pwfn(
            [
                Breakpoint(F(0), F(3, 4), F(3, 4), F(3, 4)),
                Breakpoint(F(1, 2), F(3, 4), F(1, 2), F(1, 2)),
                Breakpoint(F(3, 4), F(1, 2), F(1, 4), F(1, 4)),
                Breakpoint(F(1), F(1, 4), F(1, 4), F(1, 4)),
            ]
        )
        assert not falsify_lower_set(GODEL, phi, GridSpec(64)).holds

    def test_counterexample_survives_refinement(self):
        rep = falsify_lower_set(GODEL, PwFn.identity(), GridSpec(16))
        w = rep.witness
        finer = GridSpec(64)
        assert {w.a, w.b} <= set(finer.points(GODEL, PwFn.identity()))
        rep2 = falsify_lower_set(GODEL, PwFn.identity(), finer)
        assert not rep2.holds

    def test_upper_falsifier(self, t4):
        psi = pwfn(
            [Breakpoint(F(0), F(0), F(0), F(0)), Breakpoint(F(1), F(1, 2), F(1, 2), F(1, 2))]
        )
        assert not falsify_upper_set(GODEL, psi, GridSpec(64)).holds
        from qflat.order import principal_upper

        assert falsify_upper_set(t4, principal_upper(t4, F(2, 5)), GridSpec(64)).holds


def _summand_holding(T, x, lower):
    """The summand [lo, hi) (lower) or (lo, hi] (upper) holding x, or None."""
    for s in T.summands:
        if (s.lo <= x < s.hi) if lower else (s.lo < x <= s.hi):
            return s
    return None


def _region(T, x, y, lower):
    """Which part of the split falsifier row the pair (x, y) lies in."""
    s = _summand_holding(T, x, lower)
    if lower:
        return "lower within" if s is not None and y <= s.hi else "lower past"
    if s is not None and y >= s.lo:
        return "upper within"
    return "upper at 1 below" if x == ONE else "upper below"


def _kernel_matches_definition(T, f, grid, lower, regions=None):
    """Every grid pair, recomputed with T.conj/T.residuum.

    Returns the falsifier's report after checking that the kernel's value
    of each pair equals the definitional one, that a violation's witness
    lhs is that exact Fraction, and that the first definitional violation
    in pair order is the one reported.  ``regions`` counts the violating
    pairs by the part of the split row they lie in.
    """
    pts = grid.points(T, f)
    vals = [f.eval(p) for p in pts]
    D, P, V, E, conj, res = scaled_pair_ops(T, [p.as_integer_ratio() for p in pts], [v.as_integer_ratio() for v in vals])
    n = len(pts)
    if lower:
        pairs = [(ix, iy) for ix in range(n) for iy in range(ix + 1, n)]
    else:
        pairs = [(ix, iy) for ix in range(n - 1, -1, -1) for iy in range(ix)]
    first = None
    for ix, iy in pairs:
        if lower:
            num, den = conj(V[ix], *res(P[iy], P[ix]))
            want = T.conj(vals[ix], T.residuum(pts[iy], pts[ix]))
        else:
            num, den = conj(V[ix], *res(P[ix], P[iy]))
            want = T.conj(T.residuum(pts[ix], pts[iy]), vals[ix])
        assert den > 0 and F(num, den * D) == want, (T.describe(), pts[ix], pts[iy])
        if want > vals[iy]:
            if first is None:
                first = (pts[ix], pts[iy], want)
            if regions is not None:
                regions[_region(T, pts[ix], pts[iy], lower)] += 1
    rep = (falsify_lower_set if lower else falsify_upper_set)(T, f, grid)
    if not rep.holds:
        w = rep.witness
        if lower:
            definitional = T.conj(f.eval(w.a), T.residuum(w.b, w.a))
        else:
            definitional = T.conj(T.residuum(w.a, w.b), f.eval(w.a))
        assert type(w.lhs) is F and w.lhs == definitional > w.rhs
    if "monotone" not in rep.detail:
        assert rep.holds == (first is None)
        if first is not None:
            assert (w.a, w.b, w.lhs) == first
    return rep


def mesh_fn(rng, T, increasing, step):
    """A monotone mesh through T's summand ends; ``step`` keeps the mesh
    values at the points and jumps to the previous value just below some."""
    xs, vals = _monotone_mesh(rng, T, increasing)
    if not step:
        return PwFn.from_points(list(zip(xs, vals)))
    bps = []
    for i, (x, v) in enumerate(zip(xs, vals)):
        left = vals[i - 1] if i and rng.random() < 0.5 else v
        bps.append(Breakpoint(x, left, v, v))
    return pwfn(bps)


def near_ends_fn(rng, T, lower):
    """A monotone step function, non-increasing if ``lower``, whose
    breakpoints and values lie within 1/24 of T's summand ends."""
    ends = T.idempotent_levels() or [F(1, 2)]

    def near(lo, hi):
        return min(max(rng.choice(ends) + F(rng.randint(lo, hi), 48), ZERO), ONE)

    xs = sorted({ZERO, ONE} | {near(0, 2) for _ in range(3)})
    vals = sorted((near(-2, 2) for _ in xs), reverse=lower)
    bps = []
    for i, (x, v) in enumerate(zip(xs, vals)):
        left = vals[i - 1] if i and rng.random() < 0.5 else v
        bps.append(Breakpoint(x, left, v, v))
    return pwfn(bps)


class TestConfigTypes:
    @pytest.mark.parametrize("size", [2.5, 8.0, "8", F(8), None, True])
    def test_non_int_sizes_refused_at_construction(self, size):
        with pytest.raises(DomainError, match="must be an int"):
            GridSpec(size)
        with pytest.raises(DomainError, match="must be an int"):
            TrialConfig(size)

    def test_int_sizes(self):
        assert len(GridSpec(4).points()) == 5 and TrialConfig(3, seed=2).trials == 3
        with pytest.raises(DomainError, match="at least 1"):
            GridSpec(0)
        with pytest.raises(DomainError, match="positive"):
            TrialConfig(0)


def fraction_points(n, T, f):
    """Reference: the grid as a sorted set of Fractions, probes by division."""
    pts = {F(k, n) for k in range(n + 1)}
    if T is not None:
        pts.update(T.idempotent_levels())
    if f is not None:
        xs = f.positions()
        pts.update(xs)
        for i, x in enumerate(xs):
            if i > 0:
                pts.add(x - (x - xs[i - 1]) / 8)
            if i + 1 < len(xs):
                pts.add(x + (xs[i + 1] - x) / 8)
    return sorted(pts)


def pole_fns():
    """1/(2 - x), whose pole lies right of [0, 1], and 1/(1 + x), whose
    pole lies left of it: c*x + d < 0 on the first, > 0 on the second."""
    half = F(1, 2)
    return (
        pwfn([Breakpoint(ZERO, half, half, half), Breakpoint(ONE, ONE, ONE, ONE)], [linfrac(ZERO, -ONE, ONE, F(-2))]),
        pwfn([Breakpoint(ZERO, ONE, ONE, ONE), Breakpoint(ONE, half, half, half)], [linfrac(ZERO, ONE, ONE, ONE)]),
    )


class TestGridKernel:
    def test_grid_values_are_the_reduced_ratios_of_f(self):
        """_grid_values reads f at every grid point as f.eval does, as a
        reduced (num, den) pair with den > 0: at breakpoints, on affine and
        fractional pieces, and on pieces whose c*x + d is negative."""
        rng = random.Random(29)
        seen = Counter()
        for trial in range(12):
            T = random_tnorm(rng) if trial % 2 else tnorm_over_997(rng)
            for f in (random_lower(T, rng), random_upper(T, rng), random_pwfn(rng), *pole_fns()):
                xs = f.positions()
                for n in [*range(1, 14), 64, 128]:
                    D, P = GridSpec(n).scaled(T, f)
                    assert _grid_values(f, D, P) == [f.eval(F(p, D)).as_integer_ratio() for p in P]
                    for p in P:
                        k = bisect.bisect_left(xs, F(p, D))
                        piece = None if xs[k] == F(p, D) else f.pieces[k - 1]
                        seen["breakpoint" if piece is None else "fractional" if piece.c else "affine"] += 1
                        seen["negative"] += piece is not None and piece.c * F(p, D) + piece.d < 0
        assert min(seen[k] for k in ("breakpoint", "affine", "fractional", "negative")) > 0, seen

    def test_falsifier_outcomes_are_pinned(self):
        """(holds, rule, detail, repr(witness)) of 1,008 seeded falsifier
        calls over the three generators and the fractional poles, hashed."""
        rng = random.Random(2029)
        digest = hashlib.sha256()
        for trial in range(504):
            T = (random_tnorm, tnorm_over_997, lambda rng: rng.choice([GODEL, PRODUCT, LUKASIEWICZ]))[trial % 3](rng)
            style = trial % 5
            if style == 0:
                f = random_lower(T, rng)
            elif style == 1:
                f = random_upper(T, rng)
            elif style == 2:
                f = random_pwfn(rng)
            else:
                f = pole_fns()[style - 3]
            grid = GridSpec(rng.randint(1, 128))
            for falsify in (falsify_lower_set, falsify_upper_set):
                rep = falsify(T, f, grid)
                digest.update(repr((rep.holds, rep.rule, rep.detail, repr(rep.witness))).encode())
        assert digest.hexdigest() == "1a3210faad35edfc33bde366ec39e06285db6936a8090ef59d384e2b2a28d977"

    def test_points_match_the_fraction_construction(self):
        rng = random.Random(13)
        for trial in range(24):
            T = (random_tnorm, tnorm_over_997, lambda rng: None)[trial % 3](rng)
            U = T or GODEL
            fs = [None, random_lower(U, rng), random_upper(U, rng), random_pwfn(rng)]
            fs.append(random_pwfn(rng).restrict(F(1, 7), F(5, 6)))
            for n in [*range(1, 14), 64, 128]:
                for f in fs:
                    pts = GridSpec(n).points(T, f)
                    assert pts == fraction_points(n, T, f)
                    assert all(type(p) is F for p in pts)

    @pytest.mark.parametrize("resolution", [16, 32, 64])
    def test_matches_definition(self, resolution):
        rng = random.Random(resolution)
        verdicts = set()
        for trial in range(12):
            T = random_tnorm(rng) if trial % 2 else tnorm_over_997(rng)
            for lower in (True, False):
                if trial % 3 == 0:
                    f = random_pwfn(rng)
                else:
                    f = (random_lower if lower else random_upper)(T, rng)
                grid = GridSpec(resolution)
                verdicts.add(_kernel_matches_definition(T, f, grid, lower).holds)
        assert verdicts == {True, False}

    def test_split_rows_keep_every_witness(self):
        """Monotone meshes reach the pair loop, so their violations fall in
        every part of a split row: within the summand of x and past it
        (lower), below the summand of 1 in row 1 and within the summand of
        x (upper).  Each report is the first of the scan over all pairs."""
        rng = random.Random(18)
        regions = Counter()
        verdicts = Counter()
        for trial in range(160):
            T = random_tnorm(rng) if trial % 2 else tnorm_over_997(rng)
            lower = trial % 4 < 2
            f = mesh_fn(rng, T, not lower, step=trial % 3 == 0)
            grid = GridSpec(6 + trial % 7)
            verdicts[_kernel_matches_definition(T, f, grid, lower, regions).holds] += 1
        for region in ("lower within", "lower past", "upper at 1 below", "upper within"):
            assert regions[region] > 0, regions
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_every_summand_row_case_reports_its_first_violation(self):
        """A row within the summand [lo, hi] of x takes one closed form per
        direction, kind and place of f(x): below lo, in [lo, hi] or above hi.
        Step functions near the summand ends reach each case as a first
        violation, and each report is the first definitional pair.  An upper
        row never does with f(x) < lo: there row 1 fails first, as conj(y,
        f(1)) >= conj(y, f(x)) = f(x) > f(y).  The hand-made case fails only
        through the Lukasiewicz floor lo > f(y)."""
        q, r = F(1, 4), F(7, 32)
        floor_only = pwfn([Breakpoint(0, q, q, q), Breakpoint(q, q, q, r), Breakpoint(1, r, r, r)])
        luk = make_tnorm([(q, F(1, 2), "lukasiewicz")])
        w = _kernel_matches_definition(luk, floor_only, GridSpec(4), True).witness
        assert (w.a, w.b) == (q, F(11, 32))
        rng = random.Random(22)
        cases = Counter()
        for trial in range(600):
            T = random_tnorm(rng) if trial % 2 else tnorm_over_997(rng)
            lower = trial % 4 < 2
            rep = _kernel_matches_definition(T, near_ends_fn(rng, T, lower), GridSpec(2 + trial % 5), lower)
            w = rep.witness
            if rep.holds or "monotone" in rep.detail or (not lower and w.a == ONE):
                continue
            s = _summand_holding(T, w.a, lower)
            if s is not None and (w.b <= s.hi if lower else w.b >= s.lo):
                at = "below" if w.value_a < s.lo else "above" if w.value_a > s.hi else "in"
                cases[lower, s.kind, at] += 1
        for lower in (True, False):
            for kind in SummandKind:
                assert cases[lower, kind, "in"] * cases[lower, kind, "above"] > 0, cases
                assert (cases[lower, kind, "below"] > 0) == lower, cases

    @pytest.mark.parametrize("falsify", [falsify_lower_set, falsify_upper_set])
    def test_point_off_the_domain_is_named(self, falsify):
        for f, msg in (
            (PwFn.identity().restrict(F(1, 4), F(1, 2)), "point 0 outside domain [1/4, 1/2]"),
            (PwFn.identity().restrict(F(0), F(1, 2)), "point 5/8 outside domain [0, 1/2]"),
        ):
            with pytest.raises(DomainError) as err:
                falsify(GODEL, f, GridSpec(8))
            assert str(err.value) == msg


class TestFalsifyFlat:
    def test_flat_candidate_clean(self, t4):
        phi = principal_lower(t4, F(2, 5))
        assert falsify_flat(t4, phi, TrialConfig(40, seed=5)).holds

    def test_worked_violator_found(self, t4):
        phi = pwfn(
            [Breakpoint(F(0), F(1), F(1), F(3, 5)), Breakpoint(F(1), F(3, 5), F(3, 5), F(3, 5))]
        )
        rep = falsify_flat(t4, phi, TrialConfig(60, seed=5))
        assert not rep.holds
        w = rep.witness
        assert w.joint < min(w.sep1, w.sep2)
        # both upper sets in the counterexample are genuine upper sets
        assert check_upper_set(t4, w.psi1).holds
        assert check_upper_set(t4, w.psi2).holds

    def test_precondition_signals(self, t4):
        rep = falsify_flat(t4, PwFn.constant(F(9, 10)), TrialConfig(5, seed=1))
        assert not rep.holds and rep.rule == "PRE"
        assert "inhabited" in rep.detail
        rep = falsify_flat(t4, PwFn.identity(), TrialConfig(5, seed=1))
        assert not rep.holds and rep.rule == "PRE"


def repair_steps(T, xs, raw, psi):
    """The steps of _repaired_upper that show in psi, drawn from the raw
    increasing mesh (xs, raw): a cap that binds on a chord, a tail cut at
    the diagonal (the only breakpoint off the mesh), a tail held from the
    top of a frame entered on or above its floor, and a draw that is not
    constant."""
    for u, v, q in zip(xs, xs[1:], raw[1:]):
        s = T.idem_hull((u + v) / 2).summand
        pu, pv = psi.eval(u), psi.eval(v)
        if s is None or not pu < pv < q:
            continue
        if s.kind is SummandKind.LUKASIEWICZ and pv == pu + (v - u):
            yield "lukasiewicz cap binds"
        if s.kind is SummandKind.PRODUCT and (pv - s.lo) * (u - s.lo) == (pu - s.lo) * (v - s.lo):
            yield "product cap binds"
    if set(psi.positions()) - set(xs):
        yield "diagonal-cut tail"
    if any(psi.eval(s.lo) >= s.lo and psi.eval(s.hi) < s.hi < 1 for s in T.summands):
        yield "frame-held tail"
    if len({v for bp in psi.breakpoints for v in (bp.left, bp.at, bp.right)}) > 1:
        yield "not constant"


class TestGenerators:
    def test_repaired_uppers_are_upper_sets(self):
        """Every repaired mesh is an upper set by construction: 1,200 draws
        pass check_upper_set, and each step of the repair shows on some."""
        seen = Counter()
        for seed in range(300):
            for draw in (random_tnorm, tnorm_over_997):
                rng = random.Random(seed)
                T = draw(rng)
                for _ in range(2):
                    replay = random.Random()
                    replay.setstate(rng.getstate())
                    xs, raw = _monotone_mesh(replay, T, increasing=True)
                    psi = _repaired_upper(T, rng)
                    assert check_upper_set(T, psi).holds, (T.describe(), psi)
                    seen["draws"] += 1
                    seen.update(set(repair_steps(T, xs, raw, psi)))
        assert seen["draws"] == 1200 and len(seen) == 6 and min(seen.values()) > 0, seen

    def test_random_upper_runs_no_self_test(self, monkeypatch):
        from qflat import oracle, order

        def self_test(*args):
            raise AssertionError("random_upper checked its own draw")

        for module in (oracle, order):
            monkeypatch.setattr(module, "check_upper_set", self_test)
        rng = random.Random(31)
        for T in [random_tnorm(rng) for _ in range(20)] + [tnorm_over_997(rng) for _ in range(20)]:
            for _ in range(8):
                random_upper(T, rng)

    def test_lower_generator_valid(self, families):
        rng = random.Random(32)
        for T in families:
            for _ in range(8):
                assert check_lower_set(T, random_lower(T, rng)).holds

    def test_flat_candidates_pass(self, families):
        rng = random.Random(33)
        for T in families:
            for phi in flat_candidates(T, rng, 6):
                assert check_flat(T, phi).holds

    def test_mutants_violate_exactly_one_rule(self, families):
        rng = random.Random(34)
        from qflat.ideal import flat_conditions

        for T in families:
            for rule in ("F1", "F2", "F3"):
                phi = mutated_flat(T, rng, rule)
                if phi is None:
                    continue
                assert check_lower_set(T, phi).holds
                reps = flat_conditions(T, phi)
                for r, rep in reps.items():
                    assert rep.holds == (r != rule), (T.describe(), rule, r)

    def test_unknown_mutant_rule_is_refused(self):
        with pytest.raises(DomainError) as err:
            mutated_flat(GODEL, random.Random(0), "F4")
        assert str(err.value) == "unknown flatness rule 'F4'"

    def test_random_tnorms_valid(self):
        rng = random.Random(35)
        for _ in range(40):
            T = random_tnorm(rng)
            for a, b in zip(T.summands, T.summands[1:]):
                assert a.hi <= b.lo


class TestHarness:
    def test_zero_disagreements(self, families):
        rep = equivalence_harness(families[:4], TrialConfig(20, seed=42), GridSpec(48))
        assert rep.ok, rep.text()

    def test_deterministic(self, families):
        a = equivalence_harness(families[:2], TrialConfig(10, seed=7), GridSpec(32))
        b = equivalence_harness(families[:2], TrialConfig(10, seed=7), GridSpec(32))
        assert a.text() == b.text()

    def test_disagreement_is_reported(self, monkeypatch, capsys):
        # a lower-set checker that always holds: the grid falsifier disagrees
        import qflat.oracle
        from qflat.cli import main
        from qflat.report import HOLDS

        monkeypatch.setattr(qflat.oracle, "check_lower_set", lambda T, f: HOLDS)
        rep = equivalence_harness([GODEL], TrialConfig(10, seed=1), GridSpec(16))
        assert not rep.ok and rep.disagreements == 2
        assert rep.lines[0].startswith(
            "FAIL family=min candidates=10 grid_n=16 disagreements=2"
            " first: lower holds yet grid found VIOLATED DEF"
        )
        assert main(["verify", "--suite", "equivalence"]) == 1
        assert "FAIL family=min" in capsys.readouterr().out

    def test_every_disagreement_is_reported(self, monkeypatch):
        """Each stub below makes one disagreement the first of the family
        line; a violation with no witness of a known type fails the
        recheck, so revalidate_witness's last branch runs."""
        import qflat.oracle
        from qflat.report import HOLDS

        real_flat = qflat.oracle.check_flat
        rejected = violated("F1", PointWitness(ZERO, (("phi(0)", ZERO),)))

        def pointed_flat(T, phi):
            rep = real_flat(T, phi)
            return rep if rep.holds else violated(rep.rule, PointWitness(ZERO))

        cases = [
            ("check_lower_set", lambda T, f: violated("L1"), "lower witness fails recheck: VIOLATED L1"),
            ("check_flat", lambda T, phi: rejected, "constructed flat rejected: VIOLATED F1 c=0 phi(0)=0"),
            ("falsify_flat", lambda T, phi, cfg: rejected, "flat holds yet trials found VIOLATED F1 c=0"),
            ("check_flat", lambda T, phi: HOLDS, "F1 mutant misreported as HOLDS"),
            ("check_flat", pointed_flat, "F3 mutant lacks a tensor witness"),
        ]
        for name, stub, first in cases:
            with monkeypatch.context() as patch:
                patch.setattr(qflat.oracle, name, stub)
                rep = equivalence_harness([PRODUCT], TrialConfig(10, seed=1), GridSpec(16))
            assert not rep.ok
            head, note = rep.lines[0].split(" first: ")
            assert head.startswith("FAIL family=(0,1,product) candidates=10 grid_n=16 disagreements=")
            assert note.startswith(first), (name, note)

    def test_dropping_l4_would_disagree(self):
        # an L4-only violator: the exact checker reports L4, while the grid
        # falsifier independently finds a definitional counterexample; a
        # checker mutated to skip L4 would therefore disagree with the grid
        phi = pwfn(
            [
                Breakpoint(F(0), F(1), F(1), F(1)),
                Breakpoint(F(1, 2), F(1), F(1), F(1, 4)),
                Breakpoint(F(1), F(1, 4), F(1, 4), F(1, 4)),
            ]
        )
        rep = check_lower_set(GODEL, phi)
        assert rep.rule == "L4"
        assert not falsify_lower_set(GODEL, phi, GridSpec(64)).holds


class TestLemma37:
    def test_thousand_triples(self):
        assert lemma37_suite(TrialConfig(1000, seed=42)).holds

    def test_deterministic(self):
        a = lemma37_suite(TrialConfig(50, seed=9))
        b = lemma37_suite(TrialConfig(50, seed=9))
        assert a.describe() == b.describe()
