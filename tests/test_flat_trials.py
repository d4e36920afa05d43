"""Flatness trials with closed-form single tensors against the three-tensor loop.

``falsify_flat`` and ``ideal._verified_pair_witness`` take the single
tensors of principal and constant upper sets in closed form and only
decide whether the joint tensor reaches their minimum; ``falsify_flat``
skips principal/principal trials, which the identity
d_L(a, -) ^ d_L(b, -) = d_L(max(a, b), -) decides.  The references below
compute all three tensors of every trial, principal pairs included, as the
definition does; every verdict, rule, detail and witness must agree.

The library's witness search tries the canonical pairs
(const phi(c), d_L(c, -)) only.  The reference search also tries, on a
summand frame s, the frame pairs min(d_L(s.lo, -), k) and
min(d_L(c, -), s.hi), built directly; agreement shows that they never
change an outcome, and every F2 or F3 violation with phi(0) = 1 must
carry a tensor witness.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction as F
from typing import Optional

import pytest

from qflat import GODEL, LUKASIEWICZ, PRODUCT, Breakpoint, DomainError, PwFn, make_tnorm, pwfn
from qflat import ideal
from qflat.ideal import (
    check_flat,
    flat_conditions,
    is_inhabited,
    restricted_cap,
    witness_upper_pair,
)
from qflat.oracle import (
    TrialConfig,
    falsify_flat,
    flat_candidates,
    mutated_flat,
    random_lower,
    random_rat,
    random_tnorm,
    random_upper,
)
from qflat.order import check_lower_set, principal_lower, principal_upper, tensor, upper_piece
from qflat.pwfn import affine_piece, const_piece, linfrac, pointwise_min
from qflat.rat import ONE, ZERO
from qflat.report import CheckReport, TensorWitness, violated

from conftest import tnorm_over_997


# Direct constructions of the lifted frame upper sets, for the frame pairs the
# reference witness search tries after the canonical ones.


def frame_principal_upper(T, s, c):
    """The frame-principal upper set d_L^c(c, -) on [s.lo, s.hi]."""
    lo, hi = s.lo, s.hi
    if not lo <= c <= hi:
        raise DomainError("principal point outside the frame")
    if c == lo:
        return PwFn.constant(hi, lo, hi)
    piece = upper_piece(s, c)
    pts = [Breakpoint(lo, piece(lo), piece(lo), piece(lo)), Breakpoint(c, hi, hi, hi)]
    pcs = [piece]
    if c < hi:
        pts.append(Breakpoint(hi, hi, hi, hi))
        pcs.append(const_piece(hi))
    return pwfn(pts, pcs)


def lift_frame_upper(T, s, psi):
    """Extend a frame upper set to [0,1]: identity below, constant above."""
    if (psi.lo, psi.hi) != (s.lo, s.hi):
        raise DomainError("frame function does not match the summand")
    pts = []
    pcs = []
    if s.lo > 0:
        pts.append(Breakpoint(ZERO, ZERO, ZERO, ZERO))
        pcs.append(affine_piece(ONE, ZERO))
        first = psi.breakpoints[0]
        pts.append(Breakpoint(s.lo, s.lo, first.at, first.right))
    else:
        pts.append(psi.breakpoints[0])
    pts.extend(psi.breakpoints[1:])
    pcs.extend(psi.pieces)
    top = psi.breakpoints[-1].at
    if s.hi < ONE:
        last = pts.pop()
        pts.append(Breakpoint(last.x, last.left, last.at, last.at))
        pcs.append(const_piece(top))
        pts.append(Breakpoint(ONE, top, top, top))
    return pwfn(pts, pcs)

def reference_falsify_flat(T, phi, cfg):
    """The trial loop with three exact tensors per trial."""
    pre = check_lower_set(T, phi)
    if not pre:
        return CheckReport(
            False, rule="PRE", witness=pre.witness, detail="precondition: not a lower set"
        )
    inh = is_inhabited(phi)
    if not inh:
        return CheckReport(
            False, rule="PRE", witness=inh.witness, detail="precondition: not inhabited"
        )
    rng = random.Random(cfg.seed)
    for trial in range(cfg.trials):
        c: Optional[F] = None
        if trial % 4 == 3:
            psi1 = random_upper(T, rng)
            psi2 = random_upper(T, rng)
        else:
            kind = trial % 3
            if kind == 0:
                psi1 = principal_upper(T, random_rat(rng))
                psi2 = principal_upper(T, random_rat(rng))
            elif kind == 1:
                psi1 = PwFn.constant(random_rat(rng))
                psi2 = principal_upper(T, random_rat(rng))
            else:
                c = random_rat(rng)
                psi1, psi2 = witness_upper_pair(T, phi, c)
        joint = tensor(T, phi, pointwise_min(psi1, psi2)).value
        t1 = tensor(T, phi, psi1).value
        t2 = tensor(T, phi, psi2).value
        if joint != min(t1, t2):
            return violated(
                "DEF",
                TensorWitness(c, psi1, psi2, joint, t1, t2),
                detail=f"flatness violated at trial {trial}",
            )
    return CheckReport(True, detail=f"no counterexample in {cfg.trials} trials")


def reference_pair_witness(T, phi, candidates):
    """_verified_pair_witness with three exact tensors for every pair.  After
    the canonical pairs it tries the frame pairs, built by the two frame-lift
    constructors above, on every summand frame with phi(s.lo) > s.lo that
    holds all candidates: for an F3 search, the frame it checks."""
    candidates = candidates[:12]
    trials = [(c, *witness_upper_pair(T, phi, c)) for c in candidates]
    frames = [
        s for s in T.summands
        if phi.eval(s.lo) > s.lo and all(s.lo <= c <= s.hi for c in candidates)
    ]
    for s in frames:
        sigma = restricted_cap(phi, s)
        for c in candidates:
            psi1 = lift_frame_upper(T, s, PwFn.constant(sigma.eval(c), s.lo, s.hi))
            psi2 = lift_frame_upper(T, s, frame_principal_upper(T, s, c))
            trials.append((c, psi1, psi2))
    for c, psi1, psi2 in trials:
        joint = tensor(T, phi, pointwise_min(psi1, psi2)).value
        t1 = tensor(T, phi, psi1).value
        t2 = tensor(T, phi, psi2).value
        if joint < min(t1, t2):
            return TensorWitness(c, psi1, psi2, joint, t1, t2)
    return None


def outcome(rep):
    return rep.holds, rep.rule, rep.detail, rep.witness


def population(seed, families=8):
    """(T, phi): flats, F1-F3 mutants, random and non-inhabited lower sets."""
    rng = random.Random(seed)
    for fam in range(families):
        T = (GODEL, LUKASIEWICZ, PRODUCT)[fam] if fam < 3 else (
            tnorm_over_997(rng) if fam % 2 else random_tnorm(rng)
        )
        phis = flat_candidates(T, rng, 2)
        mutants = (mutated_flat(T, rng, rule) for rule in ("F1", "F2", "F3"))
        phis += [m for m in mutants if m is not None]
        phis += [random_lower(T, rng) for _ in range(2)]
        cap = PwFn.constant(F(rng.randint(0, 5), 6))
        phis.append(pointwise_min(random_lower(T, rng), cap))
        for phi in phis:
            yield T, phi, rng.randrange(1 << 30)


def test_flat_identity_hash():
    """Every flatness outcome on the population of seeds 0-5 (353 lower
    sets): falsify_flat with 8 and 16 trials, check_flat and the per-rule
    flat_conditions, serialized by repr and hashed.  A change that keeps
    every verdict, rule, detail and exact witness keeps this digest."""
    rows = []
    for seed in range(6):
        for T, phi, ts in population(seed):
            conds = {k: outcome(v) for k, v in flat_conditions(T, phi).items()}
            rows.append((
                outcome(falsify_flat(T, phi, TrialConfig(8, ts))),
                outcome(falsify_flat(T, phi, TrialConfig(16, ts))),
                outcome(check_flat(T, phi)),
                conds,
            ))
    assert len(rows) == 353
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "123aa8851232e386a70540ec59ac60d3f10bfc6d2bfb5dec3c21719d7e98d846"


def trial_kind(trial):
    """The kind of upper-set pair ``falsify_flat`` draws at a trial index."""
    if trial % 4 == 3:
        return "random"
    return ("principal", "constant", "canonical")[trial % 3]


@pytest.mark.parametrize("seed", [0, 1])
def test_falsify_flat_matches_three_tensor_loop(seed):
    verdicts, witnesses = set(), Counter()
    for T, phi, trial_seed in population(seed):
        cfg = TrialConfig(8, trial_seed)
        rep = falsify_flat(T, phi, cfg)
        assert outcome(rep) == outcome(reference_falsify_flat(T, phi, cfg)), T.describe()
        verdicts.add("HOLDS" if rep.holds else rep.rule)
        if isinstance(rep.witness, TensorWitness):
            witnesses[trial_kind(int(rep.detail.rpartition(" ")[2]))] += 1
    assert {"HOLDS", "PRE", "DEF"} <= verdicts
    assert witnesses["constant"] and witnesses["canonical"], witnesses
    # the reference computed every principal pair in full and found none separating
    assert not witnesses["principal"]


@pytest.mark.parametrize("seed", [0, 1])
def test_flat_checks_match_three_tensor_witnesses(seed, monkeypatch):
    cases = [(T, phi) for T, phi, _ in population(seed) if check_lower_set(T, phi)]
    mine = [(check_flat(T, phi), flat_conditions(T, phi)) for T, phi in cases]
    monkeypatch.setattr(ideal, "_verified_pair_witness", reference_pair_witness)
    ref = [(check_flat(T, phi), flat_conditions(T, phi)) for T, phi in cases]
    witnesses = 0
    for (T, phi), (flat, conds), (flat_ref, conds_ref) in zip(cases, mine, ref):
        assert outcome(flat) == outcome(flat_ref), T.describe()
        assert {r: outcome(v) for r, v in conds.items()} == {
            r: outcome(v) for r, v in conds_ref.items()
        }, T.describe()
        witnesses += sum(isinstance(v.witness, TensorWitness) for v in conds.values())
        if phi.eval(ZERO) == ONE:
            for rule in ("F2", "F3"):
                assert conds[rule] or isinstance(conds[rule].witness, TensorWitness), T.describe()
    assert witnesses >= 5


class CountCalls:
    """Counts the canonical pairs and principal upper sets ideal builds."""

    def __init__(self, monkeypatch):
        self.pairs = self.principals = 0
        pair, principal = ideal.witness_upper_pair, ideal.principal_upper

        def count_pair(*args):
            self.pairs += 1
            return pair(*args)

        def count_principal(*args):
            self.principals += 1
            return principal(*args)

        monkeypatch.setattr(ideal, "witness_upper_pair", count_pair)
        monkeypatch.setattr(ideal, "principal_upper", count_principal)


T4 = make_tnorm([(F(1, 4), F(1, 2), "lukasiewicz"), (F(1, 2), F(1), "product")])
CANDIDATES = [F(1, 2), F(11, 20), F(3, 5), F(4, 5)]  # _check_f3's on the step below


def test_witness_search_stops_at_the_first_separating_pair(monkeypatch):
    step = pwfn([Breakpoint(F(0), ONE, ONE, F(3, 5)), Breakpoint(ONE, F(3, 5), F(3, 5), F(3, 5))])
    calls = CountCalls(monkeypatch)
    wit = ideal._verified_pair_witness(T4, step, CANDIDATES)
    assert isinstance(wit, TensorWitness) and wit.c == CANDIDATES[0]
    # one canonical pair, whose d_L(c, -) is the only principal
    assert (calls.pairs, calls.principals) == (1, 1)


def test_f3_witness_past_the_failing_candidates(monkeypatch):
    """phi = 1, 1/(4x), 1/2 on [0, 1/4], [1/4, 1/2], [1/2, 1] under PRODUCT.
    g(x) = phi(x) * x is still g(1/4) = 1/4 at the difference points 3/8
    and 1/2, so their canonical pairs would fail.  sigma follows the frame
    principal d(-, 1/4) up to e = 1/2, so the built point is the midpoint
    3/4 of the gap from e, and its pair, the only one tried, separates."""
    q, half = F(1, 4), F(1, 2)
    pts = [Breakpoint(F(0), ONE, ONE, ONE), Breakpoint(q, ONE, ONE, ONE)]
    pts += [Breakpoint(half, half, half, half), Breakpoint(ONE, half, half, half)]
    phi = pwfn(pts, [const_piece(ONE), linfrac(F(0), ONE, F(4), F(0)), const_piece(half)])
    assert check_lower_set(PRODUCT, phi)
    calls = CountCalls(monkeypatch)
    rep = check_flat(PRODUCT, phi)
    assert rep.rule == "F3" and isinstance(rep.witness, TensorWitness)
    assert (rep.witness.c, rep.witness.joint, calls.pairs) == (F(3, 4), F(1, 3), 1)


def test_witness_search_on_a_flat_builds_only_the_canonical_pairs(monkeypatch):
    flat = principal_lower(T4, F(3, 5))
    calls = CountCalls(monkeypatch)
    assert ideal._verified_pair_witness(T4, flat, CANDIDATES) is None
    n = len(CANDIDATES)
    # d_L(c, -) for each canonical pair and nothing else
    assert (calls.pairs, calls.principals) == (n, n)


def test_f3_witness_with_phi0_below_one_under_product():
    """A canonical pair can separate when phi(0) < 1: no shortcut may skip
    the search there.  phi is 9/10 at 0 and 1/2 on (0, 1]."""
    half = F(1, 2)
    phi = pwfn([Breakpoint(F(0), F(9, 10), F(9, 10), half), Breakpoint(ONE, half, half, half)])
    assert check_lower_set(PRODUCT, phi)
    conds = flat_conditions(PRODUCT, phi)
    assert conds["F1"].rule == "F1"
    c = F(1, 4)
    wit = TensorWitness(c, PwFn.constant(half), principal_upper(PRODUCT, c), c, F(9, 20), half)
    assert (conds["F3"].holds, conds["F3"].rule, conds["F3"].witness) == (False, "F3", wit)


def test_one_joint_walk_per_canonical_pair(monkeypatch):
    """The witness search walks the joint tensor of each canonical pair it
    tries once: the walk that decides the pair also gives a witness's joint,
    which is the full tensor of phi with psi1 ^ psi2.  F2 and F3 are read
    apart, and lower sets with phi(0) < 1 make pairs that fail."""
    rng = random.Random(47)
    cases = []
    for fam in range(16):
        T = random_tnorm(rng) if fam % 2 else tnorm_over_997(rng)
        mutants = (mutated_flat(T, rng, rule) for rule in ("F2", "F3"))
        cases += [(T, phi) for phi in mutants if phi is not None]
        cases += [(T, random_lower(T, rng)) for _ in range(2)]
    walks = []
    walk = ideal._gap_walk
    monkeypatch.setattr(ideal, "_gap_walk", lambda *args: walks.append(args) or walk(*args))
    calls = CountCalls(monkeypatch)
    seen = Counter()
    for T, phi in cases:
        walks.clear()
        calls.pairs = 0
        conds = flat_conditions(T, phi)
        assert len(walks) == calls.pairs, T.describe()
        found = sum(isinstance(rep.witness, TensorWitness) for rep in conds.values())
        seen["pair failed"] += calls.pairs > found
        for rule in ("F2", "F3"):
            w = conds[rule].witness
            if isinstance(w, TensorWitness):
                assert w.joint == tensor(T, phi, pointwise_min(w.psi1, w.psi2)).value
                assert w.joint < min(w.sep1, w.sep2)
                seen[rule] += 1
    assert min(seen[k] for k in ("F2", "F3", "pair failed")) > 0, seen
