"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a single line ``ACCEPT <n> <name>: PASS (<elapsed>s,
budget <limit>s)`` on success; a failure raises with the offending values.
Expected values are either trivially forced, verified closed forms, or
recomputed here by independent brute force (grid suprema, pointwise
formula evaluation).
"""

import random
import time
from fractions import Fraction as F

from qflat import GODEL, LUKASIEWICZ, PRODUCT, Breakpoint, make_tnorm, pwfn
from qflat.ideal import (
    check_flat,
    flat_conditions,
    tensor_via_k,
    witness_upper_pair,
)
from qflat.oracle import (
    GridSpec,
    TrialConfig,
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
    revalidate_witness,
    verify_adjunction,
    verify_sandwich,
)
from qflat.order import check_lower_set, check_upper_set, principal_lower, principal_upper, tensor
from qflat.pwfn import pointwise_min
from qflat.report import TensorWitness

from conftest import grid_tensor

T4 = make_tnorm(
    [(F(1, 4), F(1, 2), "lukasiewicz"), (F(1, 2), F(1, 1), "product")]
)


class _Budget:
    def __init__(self, idx: int, name: str, limit: float):
        self.idx, self.name, self.limit = idx, name, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            status = "PASS" if elapsed < self.limit else "FAIL (over budget)"
            print(
                f"ACCEPT {self.idx} {self.name}: {status}"
                f" ({elapsed:.2f}s, budget {self.limit:.0f}s)"
            )
            assert elapsed < self.limit, f"criterion {self.idx} exceeded {self.limit}s"
        else:
            print(f"ACCEPT {self.idx} {self.name}: FAIL after {elapsed:.2f}s")
        return False


def seeded_family(count: int = 10, seed: int = 42):
    rng = random.Random(seed)
    return [random_tnorm(rng) for _ in range(count)]


def test_criterion_1_closed_form_fidelity():
    with _Budget(1, "closed-form fidelity", 5.0):
        pts = [F(k, 200) for k in range(201)]

        def min_conj(a, b):
            return min(a, b)

        def min_impl(a, b):
            return F(1) if a <= b else b

        def prod_conj(a, b):
            return a * b

        def prod_impl(a, b):
            return F(1) if a <= b else b / a

        def luk_conj(a, b):
            return max(F(0), a + b - 1)

        def luk_impl(a, b):
            return min(1 - a + b, F(1))

        cases = [
            (GODEL, min_conj, min_impl),
            (PRODUCT, prod_conj, prod_impl),
            (LUKASIEWICZ, luk_conj, luk_impl),
        ]
        for T, conj_ref, impl_ref in cases:
            conj, res = T.conj, T.residuum
            for a in pts:
                for b in pts:
                    assert conj(a, b) == conj_ref(a, b)
                    assert res(a, b) == impl_ref(a, b)
        assert LUKASIEWICZ.conj(F(7, 10), F(1, 2)) == F(1, 5)
        assert PRODUCT.residuum(F(1, 2), F(1, 4)) == F(1, 2)
        assert GODEL.residuum(F(7, 10), F(1, 2)) == F(1, 2)


def test_criterion_2_adjunction_suite():
    with _Budget(2, "adjunction suite", 60.0):
        for T in seeded_family():
            rep = verify_adjunction(T, GridSpec(60))
            assert rep.holds, (T.describe(), rep.describe())


def test_criterion_3_sandwich_suite():
    with _Budget(3, "idempotent sandwich suite", 30.0):
        for T in seeded_family():
            rep = verify_sandwich(T, GridSpec(60))
            assert rep.holds, (T.describe(), rep.describe())


def test_criterion_4_characterization_equivalence():
    with _Budget(4, "characterization equivalence", 120.0):
        families = [GODEL, LUKASIEWICZ, PRODUCT, T4] + seeded_family(1, seed=2024)
        g = GridSpec(128)
        disagreements = 0
        for fi, T in enumerate(families):
            rng = random.Random(1000 + fi)
            for t in range(500):
                lower_candidate = t % 2 == 0
                roll = rng.random()
                if roll < 0.62:
                    f = random_pwfn(rng)
                elif lower_candidate:
                    f = random_lower(T, rng)
                else:
                    f = random_upper(T, rng)
                if lower_candidate:
                    rep = check_lower_set(T, f)
                    if rep.holds:
                        if not falsify_lower_set(T, f, g).holds:
                            disagreements += 1
                    elif not revalidate_witness(T, f, rep, lower=True):
                        disagreements += 1
                else:
                    rep = check_upper_set(T, f)
                    if rep.holds:
                        if not falsify_upper_set(T, f, g).holds:
                            disagreements += 1
                    elif not revalidate_witness(T, f, rep, lower=False):
                        disagreements += 1
        assert disagreements == 0


def test_criterion_5_flat_ideal_soundness():
    with _Budget(5, "flat-ideal soundness", 180.0):
        families = [GODEL, LUKASIEWICZ, PRODUCT, T4] + seeded_family(6, seed=77)
        rng = random.Random(500)

        # 200 constructed flat ideals all pass, and falsification finds nothing
        built = 0
        fi = 0
        while built < 200:
            T = families[fi % len(families)]
            fi += 1
            for phi in flat_candidates(T, rng, 2):
                rep = check_flat(T, phi)
                assert rep.holds, (T.describe(), rep.describe())
                fal = falsify_flat(T, phi, TrialConfig(100, seed=rng.randrange(1 << 30)))
                assert fal.holds, (T.describe(), fal.describe())
                built += 1

        # 200 mutants each violating exactly one condition all fail, with
        # verified strict tensor witnesses for the F2/F3 cases
        mutated = 0
        mi = 0
        rules = ("F1", "F2", "F3")
        while mutated < 200:
            T = families[mi % len(families)]
            rule = rules[mi % 3]
            mi += 1
            phi = mutated_flat(T, rng, rule)
            if phi is None:
                continue
            verdicts = flat_conditions(T, phi)
            assert check_lower_set(T, phi).holds
            for r, rep in verdicts.items():
                assert rep.holds == (r != rule), (T.describe(), rule, r)
            rep = check_flat(T, phi)
            assert not rep.holds and rep.rule == rule
            if rule in ("F2", "F3"):
                w = rep.witness
                assert isinstance(w, TensorWitness), (T.describe(), rule)
                assert w.joint < min(w.sep1, w.sep2)
                # recompute all three tensor values from the reported pair
                joint = tensor(T, phi, pointwise_min(w.psi1, w.psi2)).value
                t1 = tensor(T, phi, w.psi1).value
                t2 = tensor(T, phi, w.psi2).value
                assert (joint, t1, t2) == (w.joint, w.sep1, w.sep2)
            mutated += 1


def test_criterion_6_basic_case_structure():
    with _Budget(6, "basic-case structure", 30.0):
        rng = random.Random(600)
        for T in (LUKASIEWICZ, PRODUCT):
            for _ in range(100):
                x = F(rng.randint(0, 997), 997)
                phi = principal_lower(T, x)
                assert check_flat(T, phi).holds
                assert phi.eval(F(1)) == x  # the principal point is phi(1)
        for i in range(500):
            f = random_pwfn(rng) if i % 2 else random_lower(GODEL, rng)
            flat = check_flat(GODEL, f).holds
            expected = check_lower_set(GODEL, f).holds and f.eval(F(0)) == 1
            assert flat == expected


def test_criterion_7_k_reduction():
    with _Budget(7, "tensor K-reduction", 60.0):
        families = [GODEL, LUKASIEWICZ, PRODUCT, T4] + seeded_family(4, seed=700)
        rng = random.Random(701)
        flats, uppers = [], []
        fi = 0
        while len(flats) < 100:
            T = families[fi % len(families)]
            fi += 1
            flats.append((T, flat_candidates(T, rng, 1)[0]))
            uppers.append(random_upper(T, rng))
        for k, (T, phi) in enumerate(flats):
            for off in (0, 37, 73):
                psi = uppers[(k + off) % 100]
                # pair only with upper sets generated for the same t-norm
                if not check_upper_set(T, psi).holds:
                    psi = principal_upper(T, F(k % 11, 11))
                assert tensor_via_k(T, phi, psi) == tensor(T, phi, psi).value


def test_criterion_8_min_distributivity():
    with _Budget(8, "sup min-distributivity", 10.0):
        rep = lemma37_suite(TrialConfig(1000, seed=42))
        assert rep.holds, rep.describe()


def test_criterion_9_worked_counterexample():
    with _Budget(9, "worked counterexample", 1.0):
        phi = pwfn(
            [
                Breakpoint(F(0), F(1), F(1), F(3, 5)),
                Breakpoint(F(1), F(3, 5), F(3, 5), F(3, 5)),
            ]
        )
        psi1, psi2 = witness_upper_pair(T4, phi, F(3, 10))
        meet = pointwise_min(psi1, psi2)
        joint = tensor(T4, phi, meet)
        t1 = tensor(T4, phi, psi1).value
        t2 = tensor(T4, phi, psi2).value
        assert joint.value == F(13, 25)
        assert min(t1, t2) == F(3, 5)
        # grid brute force agrees
        assert grid_tensor(T4, phi, meet, 200) == F(13, 25)
        assert max(grid_tensor(T4, phi, psi1, 200), F(0)) == F(3, 5)
        assert grid_tensor(T4, phi, psi2, 200) == F(3, 5)
