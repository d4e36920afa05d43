"""Seeded inputs, timed items and the correctness gate of each workload.

``setup_probe.py`` imports this module in a fresh interpreter, so the
time to import qflat is part of set-up.  The library is reached only through
module attributes (``order.check_lower_set``, never a copied binding), so
the span wrapper of ``tracer.py`` sees every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from qflat import ideal, oracle, order, pointwise_min, tnorms
from qflat.report import CheckReport, TensorWitness

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Grid resolution and trial budget of acceptance criteria 4 and 5.
GRID = oracle.GridSpec(128)
FLAT_TRIALS = 16

# The north-star command; the benchmark only supplies the seed.
CLI_ARGS = ("verify", "--suite", "all", "--grid", "60", "--trials", "60")
CLI_ARGS_TINY = ("verify", "--suite", "all", "--grid", "6", "--trials", "3")
CLI_SEEDS_PER_PASS = 2
CLI_TIMEOUT_S = 130  # measure_cli.py stops the command itself after 120 s

T4 = tnorms.make_tnorm(
    [(Fraction(1, 4), Fraction(1, 2), "lukasiewicz"), (Fraction(1, 2), Fraction(1), "product")]
)


@dataclasses.dataclass(frozen=True)
class Item:
    """One unit of work.  ``kind`` picks the checker ("lower", "upper",
    "flat") or is "cli"; ``expect`` is "HOLDS", the one rule a mutant must
    violate, or None when only the witness can be re-checked."""

    kind: str
    T: object
    f: object
    expect: Optional[str] = None
    seed: int = 0


def random_sum(rng: random.Random, k: int, den: int) -> tnorms.OrdinalSumTNorm:
    """An ordinal sum of exactly k summands with endpoints over ``den``.

    The summand count is fixed so that the work per family, and with it
    the run-to-run spread, does not hinge on one draw.
    """
    cuts = sorted(rng.sample(range(1, den), 2 * k))
    return tnorms.make_tnorm(
        [
            (Fraction(cuts[2 * i], den), Fraction(cuts[2 * i + 1], den),
             rng.choice(("lukasiewicz", "product")))
            for i in range(k)
        ]
    )


_SUM_SHAPES = ((2, 24), (3, 24), (2, 997), (3, 997))


def families(rng: random.Random, n_random: int) -> list:
    """Goedel, Lukasiewicz, product and T4, then ``n_random`` seeded sums.

    Half the sums have endpoints over the prime 997, so that large
    rationals reach every layer.  Many families per pool average out how
    costly any one draw happens to be.
    """
    fams = [tnorms.GODEL, tnorms.LUKASIEWICZ, tnorms.PRODUCT, T4]
    return fams + [random_sum(rng, *_SUM_SHAPES[i % 4]) for i in range(n_random)]


# Each workload draws a fixed mix per family and round: only the draws
# vary with the seed, never the proportions, which keeps the item-cost
# distribution (and so p50 and p90) steady from seed to seed.


def _decide_round(T, rng: random.Random) -> list[Item]:
    items = [Item("lower" if i % 2 == 0 else "upper", T, oracle.random_pwfn(rng)) for i in range(4)]
    items += [Item("lower", T, oracle.random_lower(T, rng), "HOLDS") for _ in range(3)]
    items += [Item("upper", T, oracle.random_upper(T, rng), "HOLDS") for _ in range(3)]
    items += [Item("flat", T, phi, "HOLDS") for phi in oracle.flat_candidates(T, rng, 3)]
    for rule in ("F1", "F2", "F3"):
        phi = oracle.mutated_flat(T, rng, rule)
        if phi is not None:
            items.append(Item("flat", T, phi, rule))
    return items


def _crosscheck_round(T, rng: random.Random) -> list[Item]:
    # Two genuine sets per arbitrary function keep holding verdicts, which
    # run the grid falsifier and dominate the cost, at about three quarters
    # of the items, so p50 and p90 both fall among them on every seed.
    items = [Item("lower", T, oracle.random_pwfn(rng)), Item("upper", T, oracle.random_pwfn(rng))]
    items += [Item("lower", T, oracle.random_lower(T, rng), "HOLDS") for _ in range(2)]
    items += [Item("upper", T, oracle.random_upper(T, rng), "HOLDS") for _ in range(2)]
    return items


def _flatsample_round(T, rng: random.Random) -> list[Item]:
    return [
        Item("flat", T, phi, "HOLDS", rng.randrange(1 << 30))
        for phi in oracle.flat_candidates(T, rng, 3)
    ]


# workload: (round maker, seeded families, rounds per family)
_POOLS = {
    "decide": (_decide_round, 16, 6),
    "crosscheck": (_crosscheck_round, 20, 1),
    "flatsample": (_flatsample_round, 12, 3),
}


def make_items(workload: str, seed: int, tiny: bool = False, part: int = 0) -> list[Item]:
    """The items of pass ``part``, generated from the seed.  Set-up makes
    part 0; each later pass draws new families, so a run averages over
    many more of them than one pass holds."""
    rng = random.Random(f"{workload}:{seed}:{part}")
    if workload == "verify_cli":
        args = CLI_ARGS_TINY if tiny else CLI_ARGS
        count = 1 if tiny else CLI_SEEDS_PER_PASS
        return [Item("cli", None, (*args, "--seed", str(rng.randrange(1 << 30)))) for _ in range(count)]
    make_round, n_random, rounds = _POOLS[workload]
    fams = families(rng, 1 if tiny else n_random)
    return [item for _ in range(1 if tiny else rounds) for T in fams for item in make_round(T, rng)]


def fresh(item: Item) -> Item:
    """The item with a newly built function, so nothing an earlier run of
    the same item cached on the instance is reused."""
    if dataclasses.is_dataclass(item.f):
        return dataclasses.replace(item, f=dataclasses.replace(item.f))
    return item


# ---------------------------------------------------------------------------
# timed work: one call per item, one item at a time


def _check(kind: str, T, f) -> CheckReport:
    if kind == "lower":
        return order.check_lower_set(T, f)
    if kind == "upper":
        return order.check_upper_set(T, f)
    return ideal.check_flat(T, f)


def _decide(item: Item) -> tuple:
    return (_check(item.kind, item.T, item.f),)


def _crosscheck(item: Item) -> tuple:
    rep = _check(item.kind, item.T, item.f)
    lower = item.kind == "lower"
    if rep.holds:
        falsify = oracle.falsify_lower_set if lower else oracle.falsify_upper_set
        return rep, falsify(item.T, item.f, GRID)
    return rep, oracle.revalidate_witness(item.T, item.f, rep, lower)


def _flatsample(item: Item) -> tuple:
    cfg = oracle.TrialConfig(FLAT_TRIALS, item.seed)
    return ideal.check_flat(item.T, item.f), oracle.falsify_flat(item.T, item.f, cfg)


def run_cli(argv: tuple, traced: bool = False) -> tuple[list[str], dict]:
    """Run one CLI command two processes down; return its output lines and
    the JSON its launcher printed last: peak memory, or layer metrics."""
    script = BENCH / ("traced_cli.py" if traced else "measure_cli.py")
    proc = subprocess.run(
        [sys.executable, str(script), *argv], cwd=ROOT, capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def cli_runner(reports: list, traced: bool = False):
    """The timed work of a ``verify_cli`` item; each command's report goes
    to ``reports``."""

    def run_item(item: Item) -> tuple:
        lines, report = run_cli(item.f, traced)
        reports.append(report)
        return (tuple(lines),)

    return run_item


RUNNERS = {
    "decide": _decide,
    "crosscheck": _crosscheck,
    "flatsample": _flatsample,
}


# ---------------------------------------------------------------------------
# correctness gate (untimed)


def tensor_witness_error(T, phi, w: TensorWitness) -> Optional[str]:
    """Recompute the three tensor values of a flatness witness."""
    joint = order.tensor(T, phi, pointwise_min(w.psi1, w.psi2)).value
    t1 = order.tensor(T, phi, w.psi1).value
    t2 = order.tensor(T, phi, w.psi2).value
    if (joint, t1, t2) != (w.joint, w.sep1, w.sep2):
        return "tensor witness values do not recompute"
    if not joint < min(t1, t2):
        return "tensor witness does not separate"
    return None


def gate(item: Item, outcome: tuple) -> Optional[str]:
    """Why the outcome of an item is wrong, or None when it is right."""
    if item.kind == "cli":
        bad = [ln for ln in outcome[0] if not ln.startswith("PASS ")]
        return f"{len(bad)} lines not PASS, first: {bad[0]}" if bad else None
    rep = outcome[0]
    if item.expect == "HOLDS" and not rep.holds:
        return f"expected HOLDS, got {rep.describe()}"
    if item.expect not in (None, "HOLDS") and (rep.holds or rep.rule != item.expect):
        return f"expected {item.expect}, got {rep.describe()}"
    if not rep.holds:
        if item.kind in ("lower", "upper") and not oracle.revalidate_witness(
            item.T, item.f, rep, item.kind == "lower"
        ):
            return f"witness fails re-check: {rep.describe()}"
        if isinstance(rep.witness, TensorWitness):
            err = tensor_witness_error(item.T, item.f, rep.witness)
            if err:
                return err
    for check in outcome[1:]:
        if check is False:
            return f"witness fails re-check: {rep.describe()}"
        if isinstance(check, CheckReport) and not check.holds:
            return f"oracle contradicts {rep.describe()}: {check.describe()}"
    return None


def digest(outcomes: list) -> str:
    """sha256 of the (holds, rule) pairs of every outcome, in order; verify
    output lines count as they are, and a failed item as ERROR."""
    h = hashlib.sha256()
    for outcome in outcomes:
        parts = ["ERROR"] if outcome is None else [
            (p.holds, p.rule) if isinstance(p, CheckReport) else p for p in outcome
        ]
        h.update(repr(parts).encode() + b"\n")
    return h.hexdigest()
