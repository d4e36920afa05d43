"""Plain-text spec files holding named t-norms and named functions.

The grammar is deliberately tiny so rational values round-trip bit-exactly:

    tnorm <name>
    summand <lo> <hi> lukasiewicz|product

    fn <name>
    point <x> : [<left>] <at> [<right>]

Blank lines and ``#`` comments are ignored.  The names godel, lukasiewicz
and product resolve to builtin t-norms without any file.  The ``fn``
stanza covers exactly the affine fragment of :class:`PwFn`: fractional
pieces arise only from constructions, never from parsing.  This module is
the one reader and writer of the format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .pwfn import Breakpoint, PwFn, pwfn
from .rat import DomainError, ParseError, Rat, ensure_unit, fmt_rat, parse_rat
from .tnorms import OrdinalSumTNorm, builtin, make_tnorm


@dataclass
class SpecFile:
    tnorms: dict[str, OrdinalSumTNorm] = field(default_factory=dict)
    fns: dict[str, PwFn] = field(default_factory=dict)

    def resolve_tnorm(self, name: str) -> OrdinalSumTNorm:
        if name in self.tnorms:
            return self.tnorms[name]
        t = builtin(name)
        if t is None:
            raise ParseError(f"unknown t-norm {name!r}")
        return t

    def resolve_fn(self, name: str) -> PwFn:
        if name not in self.fns:
            raise ParseError(f"unknown function {name!r}")
        return self.fns[name]


def parse_specfile(text: str) -> SpecFile:
    spec = SpecFile()
    stanzas = {
        "tnorm": (spec.tnorms, "t-norm", parse_tnorm_body),
        "fn": (spec.fns, "function", parse_pwfn_body),
    }
    stanza_kind = ""
    stanza_name = ""
    body: list[str] = []

    def flush() -> None:
        if not stanza_kind:
            return
        table, what, parse = stanzas[stanza_kind]
        if stanza_name in table:
            raise ParseError(f"duplicate {what} name {stanza_name!r}")
        table[stanza_name] = parse(stanza_name, body)

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head = line.split()
        if head[0] in stanzas:
            if len(head) != 2:
                raise ParseError(f"bad stanza header {line!r}")
            flush()
            stanza_kind, stanza_name = head[0], head[1]
            body = []
        elif stanza_kind:
            body.append(line)
        else:
            raise ParseError(f"line outside any stanza: {line!r}")
    flush()
    return spec


def print_specfile(spec: SpecFile) -> str:
    chunks = [print_tnorm(t, name) for name, t in spec.tnorms.items()]
    chunks += [print_pwfn(f, name) for name, f in spec.fns.items()]
    return "\n".join(chunks)


def print_tnorm(t: OrdinalSumTNorm, name: str) -> str:
    lines = [f"tnorm {name}"]
    for s in t.summands:
        lines.append(f"summand {fmt_rat(s.lo)} {fmt_rat(s.hi)} {s.kind.value}")
    return "\n".join(lines) + "\n"


def parse_tnorm_body(name: str, lines: Sequence[str]) -> OrdinalSumTNorm:
    """Parse the ``summand`` lines of one ``tnorm`` stanza.

    The names godel, lukasiewicz and product with no summand lines expand
    to their canonical forms; explicit summands under an alias name are
    rejected to avoid shadowing surprises.
    """
    rows = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] != "summand" or len(toks) != 4:
            raise ParseError(f"tnorm {name}: unexpected line {line!r}")
        rows.append(toks[1:])
    alias = builtin(name)
    if alias is not None:
        if rows:
            raise ParseError(
                f"tnorm {name}: {name!r} is a builtin alias and cannot carry"
                " explicit summands"
            )
        return alias
    try:
        return make_tnorm((parse_rat(lo), parse_rat(hi), kind) for lo, hi, kind in rows)
    except (ParseError, DomainError) as exc:
        raise ParseError(f"tnorm {name}: {exc}") from None


def print_pwfn(f: PwFn, name: str) -> str:
    """Render in the ``fn`` stanza format (affine pieces only)."""
    for piece in f.pieces:
        if not piece.is_affine:
            raise ValueError(
                "function has a non-linear piece; the text format is"
                " piecewise-linear only"
            )
    lines = [f"fn {name}"]
    last = len(f.breakpoints) - 1
    for i, bp in enumerate(f.breakpoints):
        vals = []
        if i > 0:
            vals.append(fmt_rat(bp.left))
        vals.append(fmt_rat(bp.at))
        if i < last:
            vals.append(fmt_rat(bp.right))
        lines.append(f"point {fmt_rat(bp.x)} : {' '.join(vals)}")
    return "\n".join(lines) + "\n"


def parse_pwfn_body(name: str, lines: Sequence[str]) -> PwFn:
    """Parse the ``point`` lines of one ``fn`` stanza.

    Every fault, a bad literal or a value outside [0,1] included, is a
    :class:`ParseError` that names the stanza.
    """
    try:
        return pwfn(_point_rows(lines))
    except (DomainError, ParseError) as exc:
        raise ParseError(f"fn {name}: {exc}") from None


def _point_rows(lines: Sequence[str]) -> list[Breakpoint]:
    rows: list[tuple[Rat, list[Rat]]] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("point"):
            raise ParseError(f"unexpected line {line!r}")
        try:
            head, vals = line[len("point"):].split(":", 1)
        except ValueError:
            raise ParseError(f"missing ':' in {line!r}") from None
        x = ensure_unit(parse_rat(head), "breakpoint position")
        values = [ensure_unit(parse_rat(tok), "breakpoint value") for tok in vals.split()]
        if not 1 <= len(values) <= 3:
            raise ParseError(f"expected 1-3 values, got {len(values)}")
        rows.append((x, values))
    if len(rows) < 2:
        raise ParseError("needs at least points at both domain ends")
    rows.sort(key=lambda r: r[0])
    for (x, _), (y, _) in zip(rows, rows[1:]):
        if x == y:
            raise ParseError(f"duplicate point {fmt_rat(x)}")
    bps = []
    last = len(rows) - 1
    for i, (x, values) in enumerate(rows):
        expected = 3 - (i == 0) - (i == last)
        if len(values) == 1:
            values *= 3
        elif len(values) == expected:  # an outer limit is the end's own value
            values = values[:1] * (i == 0) + values + values[-1:] * (i == last)
        else:
            raise ParseError(
                f"point {fmt_rat(x)} expects {expected} values"
                f" (or 1), got {len(values)}"
            )
        bps.append(Breakpoint(x, *values))
    return bps
