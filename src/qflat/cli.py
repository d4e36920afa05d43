"""The qflat command line: evaluate, check, tensor, verify, emit CSV.

Exit codes are a stable contract: 0 success or a holding verdict, 1 a
violated verdict or failed suite, 2 parse errors, 3 domain errors and
exact refusals (an irrational point the exact arithmetic cannot name), 4 an
internal error (any other exception, never reported as a verdict).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .ideal import NetSpec, check_flat, net_ideal
from .oracle import (
    GridSpec,
    TrialConfig,
    equivalence_harness,
    lemma37_suite,
    random_tnorm,
    verify_adjunction,
    verify_sandwich,
    yoneda_suite,
)
from .order import check_lower_set, check_upper_set, principal_lower, principal_upper, tensor
from .pwfn import PwFn, pointwise_max, pointwise_min
from .rat import DomainError, ExactnessError, ParseError, Rat, fmt_rat, parse_rat
from .specfile import SpecFile, parse_specfile
from .tnorms import GODEL, LUKASIEWICZ, PRODUCT, make_tnorm
import random

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4


def _load_spec(path: str | None) -> SpecFile:
    if path is None:
        return SpecFile()
    if path == "-":
        return parse_specfile(sys.stdin.read())
    with open(path) as fh:
        return parse_specfile(fh.read())


def _decimal(value: Rat) -> str:
    return f"{float(value):.6g}"


def _print_rat(value: Rat) -> None:
    print(f"{fmt_rat(value)} ({_decimal(value)})")


# ---------------------------------------------------------------------------
# derived-function expressions for csv


# a name is a run of letters, digits and _./-; spaces and tabs separate
# tokens, and any other character is a token of its own
_TOKEN = re.compile(r"(?P<name>[\w./-]+)|[^ \t]")


def parse_expr(text: str, spec: SpecFile) -> PwFn:
    """name | principal_lower(T, x) | principal_upper(T, x)
    | net_ideal(T, [p1 p2 ...], limit, open|closed)
    | min(e, e) | max(e, e) | const(k) | identity"""
    toks = [(m.group(), m.start(), m["name"] is not None) for m in _TOKEN.finditer(text)]
    toks.append(("", len(text), False))  # the end of the text
    i = 0

    def take(ch: str | None = None) -> str:
        """Consume the next token, which must be ch, or a name if ch is None."""
        nonlocal i
        tok, start, is_name = toks[i]
        if ch is None and not is_name:
            raise ParseError(f"expected a name at {text[start:]!r}")
        if ch is not None and tok != ch:
            raise ParseError(f"expected {ch!r} at {text[start:]!r}")
        i += 1
        return tok

    def expr() -> PwFn:
        name = take()
        if toks[i][0] != "(":
            if name == "identity":
                return PwFn.identity()
            return spec.resolve_fn(name)
        take("(")
        if name in ("principal_lower", "principal_upper"):
            T = spec.resolve_tnorm(take())
            take(",")
            x = parse_rat(take())
            take(")")
            make = principal_lower if name == "principal_lower" else principal_upper
            return make(T, x)
        if name == "net_ideal":
            T = spec.resolve_tnorm(take())
            take(",")
            take("[")
            pts = []
            while toks[i][0] != "]":
                pts.append(parse_rat(take()))
            take("]")
            take(",")
            limit = parse_rat(take())
            take(",")
            mode = take()
            take(")")
            if mode not in ("open", "closed"):
                raise ParseError("net_ideal mode must be open or closed")
            return net_ideal(T, NetSpec(tuple(pts), limit, attained=(mode == "closed")))
        if name in ("min", "max"):
            a = expr()
            take(",")
            b = expr()
            take(")")
            return (pointwise_min if name == "min" else pointwise_max)(a, b)
        if name == "const":
            k = parse_rat(take())
            take(")")
            return PwFn.constant(k)
        raise ParseError(f"unknown function expression {name!r}")

    try:
        fn = expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    tok, start, _ = toks[i]
    if tok:
        raise ParseError(f"trailing input in expression: {text[start:]!r}")
    return fn


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    T = spec.resolve_tnorm(args.tnorm)
    x, y = parse_rat(args.x), parse_rat(args.y)
    if args.op == "conj":
        value = T.conj(x, y)
    elif args.op == "dr":
        value = T.residuum(y, x)
    else:  # impl and dl are the same map
        value = T.residuum(x, y)
    _print_rat(value)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    T = spec.resolve_tnorm(args.tnorm)
    fn = parse_expr(args.fn, spec)
    checker = {"lower": check_lower_set, "upper": check_upper_set, "flat": check_flat}[
        args.kind
    ]
    report = checker(T, fn)
    print(report.describe())
    return EXIT_OK if report.holds else EXIT_VIOLATED


def cmd_tensor(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    T = spec.resolve_tnorm(args.tnorm)
    phi = parse_expr(args.lower, spec)
    psi = parse_expr(args.upper, spec)
    low = check_lower_set(T, phi)
    upp = check_upper_set(T, psi)
    if not low.holds:
        print(f"warning: {args.lower} is not a fuzzy lower set", file=sys.stderr)
    if not upp.holds:
        print(f"warning: {args.upper} is not a fuzzy upper set", file=sys.stderr)
    value, attained = tensor(T, phi, psi)
    print(f"{fmt_rat(value)} ({_decimal(value)}) {'attained' if attained else 'limit'}")
    return EXIT_OK


def _verify_families(args: argparse.Namespace, spec: SpecFile):
    if spec.tnorms:
        return list(spec.tnorms.values())
    rng = random.Random(args.seed)
    fams = [GODEL, LUKASIEWICZ, PRODUCT,
            make_tnorm([(Fraction(1, 4), Fraction(1, 2), "lukasiewicz"),
                        (Fraction(1, 2), Fraction(1, 1), "product")])]
    # min is already covered by the builtin; draw ordinal sums with summands
    draws = (random_tnorm(rng) for _ in range(16))
    fams += [t for t in draws if t.summands][:4]
    return fams


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    families = _verify_families(args, spec)
    # built before any suite runs, so a bad budget or grid fails with no output
    cfg, grid = TrialConfig(args.trials, args.seed), GridSpec(args.grid)
    per_family = {
        "adjunction": lambda T: verify_adjunction(T, grid),
        "sandwich": lambda T: verify_sandwich(T, grid),
        "yoneda": lambda T: yoneda_suite(T, cfg),
    }
    suites = (
        ["adjunction", "sandwich", "equivalence", "lemma37"]
        if args.suite == "all"
        else [args.suite]
    )
    ok, lines = True, []
    for suite in suites:
        if suite == "equivalence":
            harness = equivalence_harness(families, cfg, grid)
            ok &= harness.ok
            lines += [f"{ln} suite=equivalence" for ln in harness.lines]
            continue
        if suite == "lemma37":
            runs = [("lemma37", lemma37_suite(TrialConfig(max(cfg.trials * 10, 100), cfg.seed)))]
        else:
            runs = [(f"{suite} family={T.describe()}", per_family[suite](T)) for T in families]
        for label, rep in runs:
            ok &= rep.holds
            lines.append(f"{'PASS' if rep.holds else 'FAIL'} {label} {rep.describe()}")
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_VIOLATED


def cmd_csv(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    if args.samples < 2:
        raise DomainError("need at least 2 samples")
    fn = parse_expr(args.fn, spec)
    xs = {Fraction(k, args.samples - 1) for k in range(args.samples)}
    xs.update(bp.x for bp in fn.breakpoints)
    print("x,left,at,right,x_exact,at_exact")
    for x in sorted(xs):
        left = fn.eval(x, "below") if x > fn.lo else fn.eval(x)
        right = fn.eval(x, "above") if x < fn.hi else fn.eval(x)
        at = fn.eval(x)
        print(
            f"{_decimal(x)},{_decimal(left)},{_decimal(at)},{_decimal(right)},"
            f"{fmt_rat(x)},{fmt_rat(at)}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qflat",
        description="Exact ordinal-sum t-norms, fuzzy orders and flat ideals on [0,1].",
    )
    p.add_argument("--spec", help="spec file with tnorm/fn stanzas ('-' for stdin)")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate conj/impl/dl/dr at a pair")
    pe.add_argument("tnorm")
    pe.add_argument("op", choices=["conj", "impl", "dl", "dr"])
    pe.add_argument("x")
    pe.add_argument("y")
    pe.set_defaults(func=cmd_eval)

    pc = sub.add_parser("check", help="decide lower/upper/flat membership")
    pc.add_argument("tnorm")
    pc.add_argument("kind", choices=["lower", "upper", "flat"])
    pc.add_argument("fn", help="function name or derived expression")
    pc.set_defaults(func=cmd_check)

    pt = sub.add_parser("tensor", help="tensor of a lower and an upper set")
    pt.add_argument("tnorm")
    pt.add_argument("lower")
    pt.add_argument("upper")
    pt.set_defaults(func=cmd_tensor)

    pv = sub.add_parser("verify", help="run oracle suites")
    pv.add_argument(
        "--suite",
        default="all",
        choices=["adjunction", "sandwich", "equivalence", "lemma37", "yoneda", "all"],
    )
    pv.add_argument("--trials", type=int, default=60)
    pv.add_argument("--grid", type=int, default=60)
    # a string default goes through type=int only when verify runs without
    # --seed, so a bad QFLAT_SEED is a usage error (exit 2) there and nowhere else
    pv.add_argument("--seed", type=int, default=os.environ.get("QFLAT_SEED", "42"))
    pv.set_defaults(func=cmd_verify)

    pcsv = sub.add_parser("csv", help="sample a function as CSV on stdout")
    pcsv.add_argument("fn", help="function name or derived expression")
    pcsv.add_argument("--samples", type=int, default=33)
    pcsv.set_defaults(func=cmd_csv)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, ExactnessError, OSError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
