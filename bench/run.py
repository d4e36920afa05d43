"""qflat benchmark: end-to-end metrics per workload, or traced per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload decide --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads are ``decide``, ``crosscheck``, ``flatsample`` and ``verify_cli``
(see README.md); ``all`` runs each in its own process.  Load is one caller
in a closed loop, one item at a time.  ``--trace 0`` times the workload for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs a fixed
number of items, alternately untraced and traced, and reports per-layer
metrics and the tracing overhead.  The last line of standard output is one JSON
object; the exit code is 1 when any verdict is wrong or any item failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import Tracer, metric_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("decide", "crosscheck", "flatsample", "verify_cli")

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# Set-up (a fresh interpreter imports qflat and generates the pool) is
# timed this many times per run, spread over the measured time, and its
# median reported.  A fixed Fraction loop is timed beside each round.
SETUP_ROUNDS = 15
CALIB_TERMS = 10_000
PROBE_TIMEOUT_S = 60

# Items of a traced run (the pool and the parts after it, cut to this
# length), each run once untraced and once traced, sized so that each side
# takes five to ten seconds on a 2-core x86 machine.  A fixed count makes
# every layer's call count repeat exactly.  The two sides alternate in
# chunks.
TRACE_ITEMS = {"decide": 6000, "crosscheck": 300, "flatsample": 250, "verify_cli": 1}
TRACE_CHUNKS = 12


def load(workload: str, seed: int, tiny: bool):
    """Import qflat afresh in this process and generate the pool."""
    for name in [n for n in sys.modules if n in ("qflat", "workloads") or n.startswith("qflat.")]:
        del sys.modules[name]
    gc.collect()
    wl = importlib.import_module("workloads")
    items = wl.make_items(workload, seed, tiny)
    origin = Path(sys.modules["qflat"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"qflat was imported from {origin}, not from {SRC}")
    return wl, items


def setup_round(workload: str, seed: int, tiny: bool) -> float:
    """Seconds of one cold set-up, timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(int(tiny))],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[0])


def calibrate() -> float:
    """Milliseconds of a fixed Fraction loop: the machine's speed right now."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, CALIB_TERMS):
        total += Fraction(1, i % 997 + 1)
    return (perf_counter() - t0) * 1e3


class Probes:
    """Set-up rounds and calibrations, due every ``seconds / rounds``
    seconds and taken between items, so that they meet the machine in the
    states the items meet it in."""

    def __init__(self, workload: str, seed: int, tiny: bool, seconds: float, rounds: int):
        self.args = (workload, seed, tiny)
        self.rounds = rounds
        self.interval = seconds / rounds
        self.due: float | None = None
        self.setup_s: list[float] = []
        self.calib_ms: list[float] = []

    def take(self) -> None:
        self.setup_s.append(setup_round(*self.args))
        self.calib_ms.append(calibrate())

    def tick(self) -> None:
        if self.due is None:
            self.due = perf_counter()
        while len(self.setup_s) < self.rounds and perf_counter() >= self.due:
            self.take()
            self.due += self.interval

    def finish(self) -> None:
        while len(self.setup_s) < self.rounds:
            self.take()


class Loop:
    """Latencies per pass, counts, wrong verdicts and errors of one
    closed-loop run, plus the outcomes of its first pass for the digest."""

    def __init__(self):
        self.passes: list[list[float]] = []
        self.attempted = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.first: list = []

    @property
    def elapsed(self) -> float:
        return sum(map(sum, self.passes))


def run_passes(wl, run_item, pool, loop: Loop, seconds=None, passes=None, probes=None) -> Loop:
    """Whole passes, pass ``k`` over the items ``pool(k)``, until ``passes``
    are done or, with ``seconds``, until a pass ends after time is up.
    Each pass first rebuilds every function as a new object, and is gated
    after it ends, both untimed.  Probes run between items and are not
    part of any latency."""
    start = perf_counter()
    done = 0
    while passes is None or done < passes:
        batch = [wl.fresh(item) for item in pool(done)]
        latencies, outcomes = [], []
        for item in batch:
            if probes is not None:
                probes.tick()
            t0 = perf_counter()
            try:
                out = run_item(item)
            except Exception as exc:  # counted and reported, the loop goes on
                out = None
                loop.errors.append(f"{type(exc).__name__}: {exc}")
            latencies.append(perf_counter() - t0)
            outcomes.append(out)
        loop.passes.append(latencies)
        loop.attempted += len(batch)
        loop.wrong += judge(wl, batch, outcomes)
        if done == 0:
            loop.first += outcomes
        done += 1
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return loop


def pools(wl, workload: str, seed: int, tiny: bool, first: list):
    """Pass ``k``'s items: the set-up's pool, then a new part per pass."""
    return lambda k: first if k == 0 else wl.make_items(workload, seed, tiny, part=k)


def judge(wl, items, outcomes) -> list[str]:
    """Why each wrong outcome is wrong; a failed item (None) is counted
    as an error, not here."""
    wrong = []
    for item, out in zip(items, outcomes):
        why = None if out is None else wl.gate(item, out)
        if why:
            wrong.append(why)
    return wrong


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository.  Git does
    not look for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def gmpy2_importable() -> bool:
    try:
        importlib.import_module("gmpy2")
    except ImportError:
        return False
    return True


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "qflat").rglob("*.py"))


def traced_passes(wl, workload: str, items) -> tuple[Loop, Loop, dict]:
    """The items untraced, then traced, chunk by chunk, so that both sides
    of the overhead ratio meet the machine in the same state."""
    plain, traced = Loop(), Loop()
    if workload == "verify_cli":
        layers: list[dict] = []
        run_passes(wl, wl.cli_runner([]), lambda _: items, plain, passes=1)
        run_passes(wl, wl.cli_runner(layers, traced=True), lambda _: items, traced, passes=1)
        return plain, traced, layers[-1] if layers else {}
    runner = wl.RUNNERS[workload]
    tracer = Tracer()
    step = -(-len(items) // TRACE_CHUNKS)
    for i in range(0, len(items), step):
        chunk = items[i : i + step]
        run_passes(wl, runner, lambda _: chunk, plain, passes=1)
        with tracer:
            run_passes(wl, runner, lambda _: chunk, traced, passes=1)
    return plain, traced, tracer.metrics()


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object plus the run record."""
    wl, items = load(workload, seed, tiny)
    gc.collect()
    record = {"workload": workload, "seed": seed, "trace": int(trace), "pool_items": len(items)}
    if not trace:
        reports: list[dict] = []
        runner = wl.cli_runner(reports) if workload == "verify_cli" else wl.RUNNERS[workload]
        probes = Probes(workload, seed, tiny, seconds, 1 if tiny else SETUP_ROUNDS)
        pool = pools(wl, workload, seed, tiny, items)
        loop = run_passes(wl, runner, pool, Loop(), seconds=seconds, probes=probes)
        probes.finish()
        walls = [sum(p) for p in loop.passes]
        values = {
            "setup_s": statistics.median(probes.setup_s),
            "items_per_s": statistics.median(len(p) / w for p, w in zip(loop.passes, walls)),
            "item_p50_ms": statistics.median(percentile(p, 50) for p in loop.passes) * 1e3,
            "item_p90_ms": statistics.median(percentile(p, 90) for p in loop.passes) * 1e3,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": max((r["peak_rss_mb"] for r in reports), default=peak_rss_mb()),
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
        record.update(
            passes=len(walls),
            setup_rounds=len(probes.setup_s),
            calib_ms=statistics.median(probes.calib_ms),
            calib_ms_rounds=[round(c, 2) for c in probes.calib_ms],
        )
        loops = [loop]
    else:
        count = len(items) if tiny else TRACE_ITEMS[workload]
        pool, parts, k = pools(wl, workload, seed, tiny, items), [], 0
        while len(parts) < count:
            parts, k = parts + pool(k), k + 1
        items = parts[:count]
        plain, traced, layer_values = traced_passes(wl, workload, items)
        plain_s, traced_s = plain.elapsed, traced.elapsed
        metrics = {k: (layer_values.get(k, 0), u) for k, u in metric_units().items()}
        metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
        record.update(untraced_s=plain_s, traced_s=traced_s, trace_overhead=traced_s / plain_s)
        loops = [plain, traced]

    wrong = [why for lp in loops for why in lp.wrong]
    errors = [err for lp in loops for err in lp.errors]
    attempted = sum(lp.attempted for lp in loops)
    failed = len(errors)
    record.update(
        items=attempted,
        wrong_verdicts=len(wrong),
        error_rate=failed / attempted,
        verdict_digest=wl.digest(loops[0].first),
        python=platform.python_version(),
        cores=os.cpu_count(),
        gmpy2=gmpy2_importable(),
        commit=git_commit(),
        src_qflat_lines=src_lines(),
    )
    return {
        "result": {
            "correct": not wrong and not failed,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "record": record,
        "problems": wrong + errors,
    }


def report(out: dict) -> None:
    rec = out["record"]
    print(f"workload {rec['workload']} seed={rec['seed']} trace={rec['trace']}")
    print("record " + json.dumps(rec))
    for problem in out["problems"][:10]:
        print("problem " + problem)
    print(f"  {'wrong_verdicts':34s} {rec['wrong_verdicts']} count")
    print(f"  {'error_rate':34s} {rec['error_rate']} ratio  (items={rec['items']})")
    for name, m in out["result"]["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        if not lines or not lines[-1].startswith("{"):
            merged["correct"] = False
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "qflat" / "__init__.py").is_file():
        print(f"error: no qflat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(out)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
