"""Per-layer spans and counters, wrapped around qflat from outside.

``Tracer`` replaces each function of ``LAYERS`` at every place it is bound
inside qflat (``from .order import tensor`` copies the binding into
``ideal`` and ``oracle``, so each copy is wrapped), and the two methods on
their class.  Every call then records its duration and the part of it
covered by wrapped child calls; self time is the difference.  Counters
are read from arguments and results at the same boundaries.  Leaving the
``with`` block restores every original binding.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute) of every wrapped function; "Class.method" for methods.
LAYERS = (
    ("tnorms", "OrdinalSumTNorm.conj"),
    ("tnorms", "OrdinalSumTNorm.residuum"),
    ("pwfn", "pwfn"),
    ("pwfn", "pointwise_min"),
    ("pwfn", "pointwise_max"),
    ("pwfn", "PwFn.refine"),
    ("_sup", "sup_ratfunc"),
    ("order", "tensor"),
    ("order", "check_lower_set"),
    ("order", "check_upper_set"),
    ("order", "principal_lower"),
    ("order", "principal_upper"),
    ("ideal", "check_flat"),
    ("ideal", "witness_upper_pair"),
    ("oracle", "falsify_lower_set"),
    ("oracle", "falsify_upper_set"),
    ("oracle", "falsify_flat"),
    ("oracle", "verify_adjunction"),
    ("oracle", "verify_sandwich"),
    ("oracle", "equivalence_harness"),
    ("oracle", "lemma37_suite"),
    ("cli", "main"),
)

STATS = (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"), ("mean_us", "us"))

COUNTERS = (
    ("oracle.grid_pairs", "count"),
    ("oracle.ns_per_grid_pair", "ns"),
    ("pwfn.breakpoints_out_mean", "count"),
    ("pwfn.max_den_bits", "bits"),
    ("ideal.witness_pairs_per_violation", "ratio"),
)

_PWFN_RESULTS = ("pwfn.pwfn", "pwfn.pointwise_min", "pwfn.pointwise_max", "pwfn.refine")


def layer_name(module: str, attr: str) -> str:
    # metric names start with a letter, so "_sup" reports as "sup"
    return f"{module.lstrip('_')}.{attr.rpartition('.')[2]}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, attr in LAYERS:
        for stat, unit in STATS:
            units[f"{layer_name(module, attr)}.{stat}"] = unit
    units.update(COUNTERS)
    return units


class Tracer:
    def __init__(self):
        # per layer: [calls, total s, self s, open spans]; a recursive call
        # adds to total only when its outermost span closes
        self.stats = {layer_name(m, a): [0, 0.0, 0.0, 0] for m, a in LAYERS}
        self._open: list[float] = []  # child time of every open span
        self._patched: list[tuple[object, str, object]] = []
        self.grid_pairs = 0
        self.bp_out = 0
        self.pwfn_out = 0
        self.max_den_bits = 0
        self.f3_attempts = 0
        self.f3_witnessed = 0

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        qmods = [m for n, m in list(sys.modules.items()) if n == "qflat" or n.startswith("qflat.")]
        self._witness_type = sys.modules["qflat.report"].TensorWitness
        hooks = {name: (None, self._note_pwfn) for name in _PWFN_RESULTS}
        hooks["oracle.falsify_lower_set"] = (None, self._note_grid)
        hooks["oracle.falsify_upper_set"] = (None, self._note_grid)
        hooks["ideal.check_flat"] = (self._tensor_calls, self._note_flat)
        for module, attr in LAYERS:
            mod = sys.modules.get("qflat." + module)
            if mod is None:  # the CLI is imported only when it runs
                continue
            name = layer_name(module, attr)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                self._patch(owner, fn_name, self._wrap(name, vars(owner)[fn_name], *hooks.get(name, (None, None))))
                continue
            original = getattr(mod, fn_name)
            wrapped = self._wrap(name, original, *hooks.get(name, (None, None)))
            for m in qmods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, name: str, fn, before, after):
        stat = self.stats[name]
        open_spans = self._open

        def span(*args, **kwargs):
            state = before() if before is not None else None
            open_spans.append(0.0)
            stat[3] += 1
            t0 = perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                dt = perf_counter() - t0
                child = open_spans.pop()
                stat[0] += 1
                stat[2] += dt - child
                stat[3] -= 1
                if stat[3] == 0:
                    stat[1] += dt
                if done and after is not None:
                    after(args, result, state)
                # the parent's self time excludes this span and its counters
                if open_spans:
                    open_spans[-1] += perf_counter() - t0
            return result

        span.__wrapped__ = fn
        return span

    # -- counters --------------------------------------------------------------

    def _tensor_calls(self) -> int:
        return self.stats["order.tensor"][0]

    def _note_pwfn(self, args, result, state) -> None:
        bps = result.breakpoints
        self.bp_out += len(bps)
        self.pwfn_out += 1
        for bp in bps:
            for v in (bp.x, bp.left, bp.at, bp.right):
                bits = v.denominator.bit_length()
                if bits > self.max_den_bits:
                    self.max_den_bits = bits

    def _note_grid(self, args, result, state) -> None:
        # a holding verdict scans every pair x < y of the grid points once
        if result.holds:
            T, f, grid = args[:3]
            n = len(grid.points(T, f))
            self.grid_pairs += n * (n - 1) // 2

    def _note_flat(self, args, result, state) -> None:
        # each witness attempt of the F3 search makes three tensor calls
        if result.rule == "F3":
            self.f3_attempts += (self._tensor_calls() - state) // 3
            self.f3_witnessed += isinstance(result.witness, self._witness_type)

    # -- report ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, total, self_s, _) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_ms"] = total * 1e3
            out[f"{name}.self_ms"] = self_s * 1e3
            out[f"{name}.mean_us"] = total * 1e6 / calls if calls else 0.0
        scan_s = self.stats["oracle.falsify_lower_set"][1] + self.stats["oracle.falsify_upper_set"][1]
        out["oracle.grid_pairs"] = self.grid_pairs
        out["oracle.ns_per_grid_pair"] = scan_s * 1e9 / self.grid_pairs if self.grid_pairs else 0.0
        out["pwfn.breakpoints_out_mean"] = self.bp_out / self.pwfn_out if self.pwfn_out else 0.0
        out["pwfn.max_den_bits"] = self.max_den_bits
        # useful outcomes (F3 verdicts with a TensorWitness) over pairs tried
        out["ideal.witness_pairs_per_violation"] = (
            self.f3_witnessed / self.f3_attempts if self.f3_attempts else 0.0
        )
        return out
