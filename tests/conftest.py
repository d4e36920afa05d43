"""Shared fixtures: reference t-norms and brute-force oracles.

The oracles here recompute answers from raw definitions (grid suprema,
pointwise formula evaluation) and never call the closed-form code paths
they are used to validate.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from qflat import GODEL, LUKASIEWICZ, PRODUCT, PwFn, make_tnorm
from qflat.pwfn import LinFrac, _meets
from qflat.rat import ExactnessError, Rat, fmt_rat
from qflat.tnorms import OrdinalSumTNorm, SummandKind

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def t4() -> OrdinalSumTNorm:
    """The two-summand reference t-norm used throughout the examples."""
    return make_tnorm(
        [
            (Fraction(1, 4), Fraction(1, 2), "lukasiewicz"),
            (Fraction(1, 2), Fraction(1, 1), "product"),
        ]
    )


@pytest.fixture(scope="session")
def families(t4):
    from qflat.oracle import random_tnorm

    rng = random.Random(2024)
    return [GODEL, LUKASIEWICZ, PRODUCT, t4] + [random_tnorm(rng) for _ in range(3)]


def grid(n: int, *extra) -> list[Fraction]:
    pts = {Fraction(k, n) for k in range(n + 1)}
    for e in extra:
        pts.update(e)
    return sorted(pts)


def brute_residuum(T, x, y, pts) -> Fraction:
    """max{z in pts : conj(x, z) <= y}; equals the residuum when it is in pts."""
    best = None
    for z in pts:
        if T.conj(x, z) <= y and (best is None or z > best):
            best = z
    assert best is not None
    return best


def grid_tensor(T, phi: PwFn, psi: PwFn, n: int = 200) -> Fraction:
    """Brute-force lower bound for the tensor: max of conj on a fine grid."""
    pts = grid(n, phi.positions(), psi.positions())
    return max(T.conj(phi.eval(p), psi.eval(p)) for p in pts)


def tnorm_over_997(rng: random.Random) -> OrdinalSumTNorm:
    """Up to four summands on cuts k/997, consecutive ones touching."""
    ends = [Fraction(0)] + [Fraction(c, 997) for c in sorted(rng.sample(range(1, 997), 3))] + [Fraction(1)]
    return make_tnorm(
        (ends[i], ends[i + 1], rng.choice(list(SummandKind)))
        for i in range(4)
        if rng.randrange(4)
    )


def equal_points(p: LinFrac, q: LinFrac, u: Rat, v: Rat) -> list[Rat]:
    """All x strictly inside (u, v) with p(x) = q(x), touch points included.

    Returns [] when the pieces coincide on the whole gap (the equality set
    is then not isolated points at all).  Raises :class:`ExactnessError`
    when an irrational solution exists inside the gap.
    """
    xs = [x for x, _ in _meets(p, q, u, v)]
    if xs and xs[0] is None:
        raise ExactnessError(
            f"irrational piece equality inside ({fmt_rat(u)}, {fmt_rat(v)})"
        )
    return xs
