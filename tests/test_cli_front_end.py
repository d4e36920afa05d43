"""The text front end, pinned: derived-function expressions and point lines.

A seeded corpus of expression strings and ``fn`` stanza bodies, good and bad,
goes through the front end; each outcome is the parsed function's repr or
the exception's type and message, and one digest over all of them changes
if any outcome does.  Below it, the exact stderr of ten exit-2 faults.
"""

import argparse
import hashlib
import random
import re

import pytest

from qflat import cli
from qflat.specfile import parse_pwfn_body

SPEC = """\
tnorm T
summand 1/4 1/2 lukasiewicz
summand 1/2 1 product

fn f
point 0 : 1 3/5
point 1 : 3/5 3/5

fn g
point 0 : 1
point 1/2 : 1 1 1/2
point 1 : 1/2 1/2

fn f.1/x-y_z
point 0 : 1/2
point 1 : 1/4
"""

NAMES = ["identity", "f", "g", "f.1/x-y_z", "T", "godel", "open", "closed", "nosuch"]
RATS = ["0", "1", "1/2", "1/3", "3/4", "2/5", "0.25", "1e-1", "-1", "x", "1/0"]
HEADS = ["min", "max", "const", "principal_lower", "principal_upper", "net_ideal", "sqrt"]
PUNCT = ["(", ")", ",", "[", "]"]
GAPS = ["", " ", "\t", "  "]
STRAY = ["\n", "#", ";", "é", "²", "*", "'", " ", "\x00", "_", "-"]
POOLS = [NAMES, RATS, HEADS, PUNCT, PUNCT, GAPS, STRAY]

DIGEST = "c8a167e080e99c43f24f16ff0beb17359d508c66330f7386dc06f02fb5ad37c2"


def expression(rng, depth=0):
    """A string the grammar accepts, up to a bad name, literal or mode."""
    roll = rng.random()
    if depth > 2 or roll < 0.3:
        return rng.choice(["identity", "f", "g", "f.1/x-y_z", "nosuch"])
    if roll < 0.45:
        return f"const({rng.choice(RATS)})"
    if roll < 0.6:
        head = rng.choice(["principal_lower", "principal_upper"])
        return f"{head}({rng.choice(['godel', 'T', 'nope'])}, {rng.choice(RATS)})"
    if roll < 0.7:
        pts = " ".join(rng.choice(RATS) for _ in range(rng.randrange(4)))
        mode = rng.choice(["open", "closed", "ajar"])
        return f"net_ideal({rng.choice(['godel', 'T'])}, [{pts}], {rng.choice(RATS)}, {mode})"
    head = rng.choice(["min", "max", "min", "max", "sqrt"])
    return f"{head}({expression(rng, depth + 1)}, {expression(rng, depth + 1)})"


def expression_text(rng):
    roll = rng.random()
    if roll < 0.25:
        return "".join(rng.choice(rng.choice(POOLS)) for _ in range(rng.randrange(12)))
    pieces = re.findall(r"[\w./-]+|.", expression(rng), re.S)
    if roll < 0.45:
        return "".join(rng.choice(GAPS) if p == " " else p for p in pieces)
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(pieces) + 1)
        edit = rng.randrange(3)
        if edit == 0 and at < len(pieces):
            del pieces[at]
        elif edit == 1:
            pieces.insert(at, rng.choice(rng.choice(POOLS)))
        elif at < len(pieces):
            pieces[at] = rng.choice(rng.choice(POOLS))
    return "".join(pieces)


VALUES = ["0", "1", "1/2", "1/3", "3/4", "2/5", "0.25", "3/5"] * 6 + ["2", "-1/2", "x", ""]
POSITIONS = ["1/2", "1/4", "3/4", "1/3", "0.5", "1/8"] * 4 + ["0", "1", "2", "x"]


def point_body(rng):
    """The lines of one fn stanza: mostly good rows, some bad ones."""
    xs = ["0", "1"] + [rng.choice(POSITIONS) for _ in range(rng.randrange(4))]
    if rng.random() < 0.1:
        del xs[rng.randrange(2)]
    if rng.random() < 0.3:
        rng.shuffle(xs)
    lines = []
    for x in xs:
        count = rng.choices(range(5), [1, 30, 30, 30, 1])[0]
        values = " ".join(rng.choice(VALUES) for _ in range(count))
        sep = rng.choices([" : ", ":", " ", " :: "], [80, 8, 2, 1])[0]
        line = f"point {x}{sep}{values}"
        if rng.random() < 0.04:
            line = rng.choice(["pt 0 : 1", "points 0 : 1", "point", "point 1/2", "fn f"])
        lines.append(rng.choice(GAPS) + line + rng.choice(GAPS))
        if rng.random() < 0.08:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "# note", "  #"]))
    return lines


class Parsed(Exception):
    """Carries the parsed function out of ``cmd_check``."""


def outcome(call):
    try:
        call()
    except Parsed as done:
        return repr(done.args[0])
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    raise AssertionError("the checker was not reached")


def parsed(fn):
    raise Parsed(fn)


def test_front_end_outcomes_are_pinned(tmp_path, monkeypatch):
    spec = tmp_path / "corpus.spec"
    spec.write_text(SPEC)
    monkeypatch.setattr(cli, "check_lower_set", lambda T, fn: parsed(fn))
    rng = random.Random(20261020)
    outcomes = []
    for _ in range(3000):
        args = argparse.Namespace(
            spec=str(spec), tnorm="godel", kind="lower", fn=expression_text(rng)
        )
        outcomes.append(outcome(lambda: cli.cmd_check(args)))
    for _ in range(2000):
        lines = point_body(rng)
        outcomes.append(outcome(lambda: parsed(parse_pwfn_body("f", lines))))
    # the corpus reaches every fault of the front end and many good inputs
    assert sum(o.startswith("PwFn[") for o in outcomes) > 500
    for fault in [
        "ParseError: expected a name at ",
        "ParseError: expected ',' at ",
        r"ParseError: expected '\)' at ",
        "ParseError: trailing input in expression: ",
        "ParseError: unknown function expression ",
        "ParseError: fn f: missing ':' in ",
        r"ParseError: fn f: point .* expects 2 values \(or 1\), got 3",
        r"ParseError: fn f: point .* expects 3 values \(or 1\), got 2",
        "ParseError: fn f: duplicate point ",
        "ParseError: fn f: unexpected line ",
    ]:
        assert any(re.match(fault, o) for o in outcomes), fault
    digest = hashlib.sha256("\n".join(outcomes).encode("utf-8", "surrogatepass")).hexdigest()
    assert digest == DIGEST, digest


@pytest.mark.parametrize(
    "spec, argv, stderr",
    [
        (None, ["csv", "identity )"], "trailing input in expression: ')'"),
        (None, ["csv", "min(identity identity)"], "expected ',' at 'identity)'"),
        (None, ["csv", "sqrt(1/2)"], "unknown function expression 'sqrt'"),
        (None, ["csv", "min(" * 3000 + "identity"], "expression nested too deeply"),
        ("fn f\npoint 0 1\npoint 1 : 0\n", ["check", "godel", "lower", "f"],
         "fn f: missing ':' in 'point 0 1'"),
        ("fn f\npoint 0 : 1 1 1\npoint 1 : 0\n", ["check", "godel", "lower", "f"],
         "fn f: point 0 expects 2 values (or 1), got 3"),
        ("# lead\npoint 0 : 1\n", ["check", "godel", "lower", "identity"],
         "line outside any stanza: 'point 0 : 1'"),
        ("fn f g\npoint 0 : 1\n", ["check", "godel", "lower", "identity"],
         "bad stanza header 'fn f g'"),
        ("tnorm T\nsummand 0 1 product\ntnorm T\n", ["check", "T", "lower", "identity"],
         "duplicate t-norm name 'T'"),
        ("tnorm T\nsummand 0 1\n", ["check", "T", "lower", "identity"],
         "tnorm T: unexpected line 'summand 0 1'"),
    ],
    ids=["trailing_input", "expected_comma", "unknown_expression", "nested_too_deeply",
         "missing_colon", "end_value_count", "outside_stanza", "bad_header",
         "duplicate_tnorm", "tnorm_unexpected_line"],
)
def test_fault_exit_2(capsys, tmp_path, spec, argv, stderr):
    if spec is not None:
        path = tmp_path / "bad.spec"
        path.write_text(spec)
        argv = ["--spec", str(path), *argv]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"parse error: {stderr}\n"
