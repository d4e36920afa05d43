"""A grammar fuzz of the command line, run in-process through ``cli.main``.

Every input, hostile or not, must end in a contract exit code: 0 holds,
1 violated (always with a VIOLATED or FAIL line), 2 parse, 3 domain.
An exit 4 is an internal error and fails the test.
"""

import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qflat.cli import main
from qflat.rat import parse_rat


def mostly(valid, hostile):
    """Each valid choice three times as likely as each hostile one."""
    return st.sampled_from(valid * 3 + hostile)


RATS = mostly(
    ["0", "1", "1/2", "1/3", "3/4", "2/5", "0.25", "1e-1"],
    ["1/0", "-1/2", "3/2", "1e999999", "1e-99999999999", "0e99999999999",
     "nan", "inf", "", "x", "1/" + "7" * 5000],
)
TNORMS = mostly(["godel", "lukasiewicz", "product", "T"], ["min", "nope", ""])
KINDS = mostly(["lukasiewicz", "product"], ["godel"])

LEAVES = st.one_of(
    mostly(["identity", "f", "g"], ["nosuch", "", "min(", "const()"]),
    st.builds("const({})".format, RATS),
    st.builds(
        "{}({}, {})".format,
        st.sampled_from(["principal_lower", "principal_upper"]),
        TNORMS,
        RATS,
    ),
    st.builds(
        "net_ideal({}, [{} {}], {}, {})".format,
        TNORMS, RATS, RATS, RATS, st.sampled_from(["open", "closed", "ajar"]),
    ),
)
EXPRS = st.one_of(
    st.recursive(
        LEAVES,
        lambda sub: st.builds(
            "{}({}, {})".format, st.sampled_from(["min", "max"]), sub, sub
        ),
        max_leaves=4,
    ),
    st.builds(
        lambda depth: "min(" * depth + "identity" + ", identity)" * depth,
        st.sampled_from([1, 50, 3000]),
    ),
)

DEMO = (
    "tnorm T\nsummand 1/4 1/2 lukasiewicz\nsummand 1/2 1 product\n"
    "fn f\npoint 0 : 1 3/5\npoint 1 : 3/5 3/5\n"
    "fn g\npoint 0 : 1\npoint 1/2 : 1 1 1/2\npoint 1 : 1/2 1/2\n"
)
# a t-norm T and a function f from drawn values, then maybe one bad line
DRAWN = st.builds(
    "tnorm T\n{}\nfn f\npoint 0 : {}\n{}\npoint 1 : {}\n{}".format,
    st.lists(st.builds("summand {} {} {}".format, RATS, RATS, KINDS), max_size=2).map(
        "\n".join
    ),
    RATS,
    st.lists(st.builds("point {} : {} {} {}".format, RATS, RATS, RATS, RATS), max_size=2).map(
        "\n".join
    ),
    RATS,
    mostly([""], ["fn f", "tnorm", "fn f extra", "summand 1/2", "point 1/2", "# note"]),
)
SPECS = st.one_of(st.none(), st.just(DEMO), DRAWN)

COMMANDS = st.one_of(
    st.builds(
        lambda t, op, x, y: ["eval", t, op, x, y],
        TNORMS, mostly(["conj", "impl", "dl", "dr"], ["meet"]), RATS, RATS,
    ),
    st.builds(
        lambda t, kind, e: ["check", t, kind, e],
        TNORMS, mostly(["lower", "upper", "flat"], ["ideal"]), EXPRS,
    ),
    st.builds(lambda t, a, b: ["tensor", t, a, b], TNORMS, EXPRS, EXPRS),
    st.builds(
        lambda e, n: ["csv", e, "--samples", n],
        EXPRS, mostly(["2", "5"], ["0", "-3", "x"]),
    ),
    st.builds(
        lambda suite, grid, trials, seed: [
            "verify", "--suite", suite, "--grid", grid, "--trials", trials, "--seed", seed,
        ],
        mostly(["adjunction", "sandwich", "equivalence", "lemma37", "yoneda", "all"], ["none"]),
        mostly(["1", "6"], ["-1", "0"]),
        mostly(["1", "3"], ["-1", "0"]),
        mostly(["0", "42"], ["x"]),
    ),
)


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(spec=SPECS, argv=COMMANDS)
def test_exit_codes_follow_the_contract(spec, argv, tmp_path, capsys):
    if spec is not None:
        path = tmp_path / "fuzz.spec"
        path.write_text(spec)
        argv = ["--spec", str(path), *argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, spec, err)
    if code == 1:
        assert any(w in ln for ln in out.splitlines() for w in ("VIOLATED", "FAIL")), argv


def test_huge_exponent_is_refused_before_the_power_is_built():
    # Fraction("1e<n>") builds 10**n; n = 10**11 would never finish
    for literal in ("1e99999999999", "1e-99999999999", "0e99999999999"):
        start = time.perf_counter()
        try:
            parse_rat(literal)
        except ValueError as exc:
            assert "digits" in str(exc)
        else:
            raise AssertionError(literal)
        assert time.perf_counter() - start < 1.0
    assert parse_rat("25e-2") == parse_rat("1/4")
