"""Flatness trials with closed-form single tensors against the three-tensor loop.

``falsify_flat`` and ``ideal._verified_pair_witness`` take the single
tensors of principal and constant upper sets in closed form and only
decide whether the joint tensor reaches their minimum; ``falsify_flat``
skips principal/principal trials, which the identity
d_L(a, -) ^ d_L(b, -) = d_L(max(a, b), -) decides.  The references below
compute all three tensors of every trial, principal pairs included, as the
definition does; every verdict, rule, detail and witness must agree.
"""

import random
from collections import Counter
from fractions import Fraction as F
from typing import Optional

import pytest

from qflat import GODEL, LUKASIEWICZ, PRODUCT, PwFn
from qflat import ideal
from qflat.ideal import (
    check_flat,
    flat_conditions,
    frame_principal_upper,
    is_inhabited,
    lift_frame_upper,
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
from qflat.order import check_lower_set, principal_upper, tensor
from qflat.pwfn import pointwise_min
from qflat.report import CheckReport, TensorWitness, violated

from conftest import tnorm_over_997

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


def reference_pair_witness(T, phi, candidates, frame=None):
    """_verified_pair_witness with three exact tensors for every pair."""
    candidates = candidates[:12]
    trials = [(c, *witness_upper_pair(T, phi, c)) for c in candidates]
    if frame is not None:
        sigma = restricted_cap(phi, frame)
        for c in candidates:
            if frame.lo <= c <= frame.hi:
                k = sigma.eval(c)
                psi1 = lift_frame_upper(T, frame, PwFn.constant(k, frame.lo, frame.hi))
                psi2 = lift_frame_upper(T, frame, frame_principal_upper(T, frame, c))
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
    for (T, _), (flat, conds), (flat_ref, conds_ref) in zip(cases, mine, ref):
        assert outcome(flat) == outcome(flat_ref), T.describe()
        assert {r: outcome(v) for r, v in conds.items()} == {
            r: outcome(v) for r, v in conds_ref.items()
        }, T.describe()
        witnesses += sum(isinstance(v.witness, TensorWitness) for v in conds.values())
    assert witnesses >= 5
