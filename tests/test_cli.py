import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qflat.cli import main
from qflat.specfile import parse_specfile, print_specfile

DEMO = """\
tnorm T4
summand 1/4 1/2 lukasiewicz
summand 1/2 1 product

fn bump
point 0 : 1 3/5
point 1 : 3/5 3/5

fn wedge
point 0 : 1
point 1/2 : 1/2
point 1 : 1/2 1/2
"""


@pytest.fixture()
def spec_path(tmp_path):
    p = tmp_path / "demo.spec"
    p.write_text(DEMO)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_lukasiewicz_impl(self, capsys):
        code, out, _ = run(capsys, "eval", "lukasiewicz", "impl", "7/10", "1/2")
        assert code == 0 and out.split()[0] == "4/5"

    def test_godel_conj(self, capsys):
        code, out, _ = run(capsys, "eval", "godel", "conj", "7/10", "1/2")
        assert code == 0 and out.split()[0] == "1/2"

    def test_decimals_parse_exactly(self, capsys):
        code, out, _ = run(capsys, "eval", "lukasiewicz", "conj", "0.7", "0.5")
        assert code == 0 and out.split()[0] == "1/5"

    def test_spec_tnorm(self, capsys, spec_path):
        code, out, _ = run(capsys, "--spec", spec_path, "eval", "T4", "conj", "3/10", "4/5")
        assert code == 0 and out.split()[0] == "3/10"

    def test_dr(self, capsys):
        code, out, _ = run(capsys, "eval", "godel", "dr", "7/10", "1/2")
        assert code == 0 and out.split()[0] == "1"

    def test_domain_error_exit_3(self, capsys):
        code, _, err = run(capsys, "eval", "godel", "conj", "3/2", "1/2")
        assert code == 3 and "domain error" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "godel", "conj", "x", "1/2")
        assert code == 2 and "parse error" in err

    def test_unknown_tnorm_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "nosuch", "conj", "1/2", "1/2")
        assert code == 2

    @pytest.mark.parametrize("literal", ["1e999999", "1e-999999"])
    def test_unprintable_literal_exit_2(self, capsys, literal):
        code, out, err = run(capsys, "eval", "godel", "conj", literal, "1/2")
        assert code == 2 and out == ""
        assert err.startswith("parse error:") and "Traceback" not in err

    def test_unprintable_result_exit_3(self, capsys):
        # each literal is printable, but their product has twice the digits
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            lit = "1/" + "7" * 400
            code, out, err = run(capsys, "eval", "product", "conj", lit, lit)
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 3 and out == ""
        assert err.startswith("domain error:") and "Traceback" not in err

    def test_internal_error_exit_4(self, capsys, monkeypatch):
        import qflat.cli as cli

        def boom(args):
            raise RuntimeError("unexpected state")

        monkeypatch.setattr(cli, "cmd_eval", boom)
        code, out, err = run(capsys, "eval", "godel", "conj", "1/2", "1/2")
        assert code == cli.EXIT_INTERNAL == 4 and out == ""
        assert err == "internal error: RuntimeError: unexpected state\n"


class TestCheck:
    def test_exact_refusal_exit_3(self, capsys, tmp_path):
        # the two principals cross at an irrational point inside (1/6, 3/8);
        # the refusal is named, not reported as an internal error
        spec = tmp_path / "t.spec"
        spec.write_text(
            "tnorm T\n"
            "summand 1/12 3/8 product\n"
            "summand 13/24 7/12 lukasiewicz\n"
            "summand 2/3 17/24 lukasiewicz\n"
        )
        expr = "min(principal_lower(T, 1/6), principal_upper(T, 2/3))"
        code, out, err = run(capsys, "--spec", str(spec), "check", "T", "lower", expr)
        assert (code, out) == (3, "")
        assert err == "domain error: irrational crossing of pieces inside (1/6, 3/8)\n"

    @pytest.mark.parametrize("kind", ["lower", "flat"])
    def test_irrational_hull_meeting_exit_3(self, capsys, kind):
        # 1/(2x) meets the identity at 1/sqrt(2): the walk refuses it by name
        code, out, err = run(capsys, "check", "godel", kind, "principal_lower(product, 1/2)")
        assert (code, out) == (3, "")
        assert err == "domain error: irrational piece equality inside (1/2, 1)\n"

    def test_flat_principal_holds(self, capsys, spec_path):
        code, out, _ = run(
            capsys, "--spec", spec_path, "check", "T4", "flat", "principal_lower(T4, 1/3)"
        )
        assert code == 0 and out.startswith("HOLDS")

    def test_flat_violator(self, capsys, spec_path):
        code, out, _ = run(capsys, "--spec", spec_path, "check", "T4", "flat", "bump")
        assert code == 1 and out.startswith("VIOLATED F2")
        assert "13/25" in out and "3/5" in out

    def test_lower_identity_violated(self, capsys):
        code, out, _ = run(capsys, "check", "godel", "lower", "identity")
        assert code == 1 and out.startswith("VIOLATED")

    def test_wedge_is_flat_under_godel(self, capsys, spec_path):
        code, out, _ = run(capsys, "--spec", spec_path, "check", "godel", "flat", "wedge")
        assert code == 0


class TestTensor:
    def test_worked_example(self, capsys, spec_path):
        code, out, _ = run(
            capsys,
            "--spec",
            spec_path,
            "tensor",
            "T4",
            "bump",
            "min(const(3/5), principal_upper(T4, 3/10))",
        )
        assert code == 0
        assert out.split()[0] == "13/25" and "attained" in out

    def test_warns_on_bad_operand(self, capsys, spec_path):
        code, out, err = run(capsys, "--spec", spec_path, "tensor", "godel", "identity", "wedge")
        assert code == 0 and "warning" in err


class TestVerify:
    def test_adjunction_suite(self, capsys, spec_path):
        code, out, _ = run(
            capsys, "--spec", spec_path, "verify", "--suite", "adjunction", "--grid", "24"
        )
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_yoneda_suite(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "verify", "--suite", "yoneda", "--trials", "6")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 8
        assert all(line.startswith("PASS yoneda family=") for line in lines)
        # a tensor that forgets attainment breaks the Yoneda form: exit 1 with FAIL
        import qflat.oracle as oracle
        from qflat import SupResult

        inner = oracle.tensor
        monkeypatch.setattr(
            oracle, "tensor", lambda T, f, g: SupResult(inner(T, f, g).value, False)
        )
        code, out, _ = run(capsys, "verify", "--suite", "yoneda", "--trials", "6")
        assert code == 1 and out.startswith("FAIL yoneda") and "Yoneda form fails" in out

    def test_all_leaves_out_yoneda(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--grid", "4", "--trials", "2")
        assert code == 0 and out and "yoneda" not in out

    @pytest.mark.parametrize(
        "suite", ["adjunction", "sandwich", "equivalence", "lemma37", "yoneda", "all"]
    )
    @pytest.mark.parametrize("bad", [("--trials", "0"), ("--trials", "-5"), ("--grid", "0")])
    def test_bad_budget_fails_before_any_suite(self, capsys, suite, bad):
        code, out, err = run(capsys, "verify", "--suite", suite, "--grid", "4", *bad)
        assert (code, out) == (3, "") and err.startswith("domain error:")

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(
            capsys, "verify", "--suite", "lemma37", "--seed", "11", "--trials", "10"
        )
        code2, out2, _ = run(
            capsys, "verify", "--suite", "lemma37", "--seed", "11", "--trials", "10"
        )
        assert (code1, out1) == (code2, out2) == (0, out2)

    def test_bad_seed_variable_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QFLAT_SEED", "abc")
        assert run(capsys, "eval", "godel", "conj", "1/2", "1/4")[0] == 0
        argv = ["verify", "--suite", "sandwich", "--grid", "2"]  # families follow the seed
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        monkeypatch.setenv("QFLAT_SEED", "7")
        from_env = run(capsys, *argv)[:2]
        assert from_env == run(capsys, *argv, "--seed", "7")[:2]
        assert from_env != run(capsys, *argv, "--seed", "42")[:2]


class TestCsv:
    def test_principal_rows(self, capsys):
        code, out, _ = run(
            capsys, "csv", "principal_lower(godel, 1/2)", "--samples", "5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,left,at,right,x_exact,at_exact"
        # 5 uniform samples; breakpoints 0, 1/2, 1 are already on that grid
        assert len(lines) == 6
        jump = [ln for ln in lines if ln.startswith("0.5,")][0]
        assert jump.split(",")[1:4] == ["1", "1", "0.5"]

    def test_constant_one(self, capsys):
        code, out, _ = run(capsys, "csv", "const(1)", "--samples", "3")
        rows = out.strip().splitlines()[1:]
        assert code == 0 and all(r.split(",")[2] == "1" for r in rows)

    def test_net_ideal_one_sided_rows(self, capsys):
        code, out, _ = run(
            capsys, "csv", "net_ideal(godel, [1/4 3/8], 1/2, open)", "--samples", "5"
        )
        assert code == 0
        jump = [ln for ln in out.splitlines() if ln.startswith("0.5,")][0]
        left, at, right = jump.split(",")[1:4]
        assert (left, at, right) == ("1", "0.5", "0.5")

    def test_breakpoints_added_to_grid(self, capsys):
        code, out, _ = run(
            capsys, "csv", "principal_lower(godel, 1/3)", "--samples", "5"
        )
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 6  # 5 uniform samples + the off-grid breakpoint 1/3
        assert code == 0

    def test_too_few_samples(self, capsys):
        code, _, err = run(capsys, "csv", "const(1)", "--samples", "1")
        assert code == 3

    def test_deep_nesting_exit_2(self, capsys):
        expr = "min(" * 1500 + "identity" + ", identity)" * 1500
        code, out, err = run(capsys, "csv", expr)
        assert code == 2 and out == ""
        assert err.startswith("parse error:") and "Traceback" not in err


class TestSpecFile:
    def test_round_trip(self):
        spec = parse_specfile(DEMO)
        text = print_specfile(spec)
        again = parse_specfile(text)
        assert again.tnorms == spec.tnorms
        assert again.fns == spec.fns

    def test_duplicate_names_rejected(self):
        from qflat import ParseError

        with pytest.raises(ParseError):
            parse_specfile("fn a\npoint 0 : 1\npoint 1 : 1\nfn a\npoint 0 : 0\npoint 1 : 0\n")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("point 0 : 1\npoint 0 : 1/2\npoint 1 : 0\n", "parse error: fn f: duplicate point 0"),
            ("point 0 : 2\npoint 1 : 0\n", "parse error: fn f: breakpoint value 2 outside [0,1]"),
            ("point x : 1\npoint 1 : 0\n", "parse error: fn f: bad rational literal ' x '"),
        ],
        ids=["duplicate_point", "value_outside_unit", "bad_literal"],
    )
    def test_fn_stanza_fault_exit_2(self, capsys, tmp_path, body, message):
        # as a tnorm stanza fault does: exit 2, naming the stanza
        path = tmp_path / "bad.spec"
        path.write_text("fn f\n" + body)
        code, out, err = run(capsys, "--spec", str(path), "eval", "godel", "conj", "1/2", "1/2")
        assert code == 2 and out == ""
        assert err.startswith(message) and "Traceback" not in err

    def test_directory_spec_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "--spec", str(tmp_path), "verify", "--suite", "lemma37")
        assert code == 3 and err.startswith("domain error:")

    def test_stdin_spec(self, spec_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qflat.cli", "--spec", "-", "eval", "T4", "conj", "3/10", "2/5"],
            input=DEMO,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout.split()[0] == "1/4"

    def test_spec_file_closed(self):
        demo = Path(__file__).resolve().parents[1] / "demo.spec"
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "qflat",
             "--spec", str(demo), "eval", "godel", "conj", "1/2", "1/4"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split()[0] == "1/4"

    def test_console_script(self):
        # The `qflat` executable exists only once the package is installed,
        # so run the target declared in pyproject.toml the way the generated
        # console-script wrapper does, plus `python -m qflat`; the installed
        # executable is run as well whenever it is on PATH.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert 'qflat = "qflat.cli:main"' in scripts.splitlines()
        argv = ["eval", "product", "impl", "1/2", "1/4"]
        wrapper = "import sys; from qflat.cli import main; sys.exit(main())"
        commands = [
            [sys.executable, "-c", wrapper, *argv],
            [sys.executable, "-m", "qflat", *argv],
        ]
        installed = shutil.which("qflat")
        if installed:
            commands.append([installed, *argv])
        for cmd in commands:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, (cmd, proc.stderr)
            assert proc.stdout.split()[0] == "1/2", (cmd, proc.stdout)


def test_package_has_no_unused_imports():
    """Every name a module of the package imports is used there or listed in
    its ``__all__``; the repository runs no linter, so this stands in."""
    import ast

    stale = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "qflat").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, exported = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.Assign) and "__all__" in {
                getattr(t, "id", None) for t in node.targets
            }:
                exported = set(ast.literal_eval(node.value))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
        stale += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not stale, stale


def test_only_pwfn_builds_a_pwfn_unvalidated():
    """PwFn(...) and pwfn._canon skip validation, so only pwfn.py calls them:
    every other module builds through pwfn() or a public constructor."""
    import ast

    calls = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "qflat").glob("*.py")):
        if path.name == "pwfn.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in ("PwFn", "_canon"):
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert not calls, calls


def test_package_has_no_unreferenced_private_definitions():
    """Every module-level private function or class of the package is named
    by some module of it outside its own definition; like the unused-import
    check, this stands in for a linter."""
    import ast

    defined, used = {}, set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "qflat").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                if not stmt.name.startswith("__"):
                    defined[stmt.name] = f"{path.name}:{stmt.lineno}"
                    names.discard(stmt.name)
            used |= names
    assert not {n: at for n, at in defined.items() if n not in used}


def test_grid_kernel_is_independent_of_the_checked_code():
    """The grid falsifiers, their integer kernel and every oracle function or
    class they name re-derive the t-norm: none names what ``qflat.order`` or
    ``qflat.ideal`` export, nor a ``.conj``/``.residuum`` attribute."""
    import ast

    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "qflat" / "oracle.py").read_text())
    checked = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in ("order", "ideal", "qflat.order", "qflat.ideal")
        for alias in node.names
    }
    defs = {d.name: d for d in tree.body if isinstance(d, (ast.FunctionDef, ast.ClassDef))}
    todo, seen, uses = ["falsify_lower_set", "falsify_upper_set", "scaled_pair_ops"], set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and node.id in checked:
                uses.append(f"{name}:{node.lineno} {node.id}")
            elif isinstance(node, ast.Name) and node.id in defs:
                todo.append(node.id)
            elif isinstance(node, ast.Attribute) and node.attr in ("conj", "residuum"):
                uses.append(f"{name}:{node.lineno} .{node.attr}")
    assert {"_grid_values", "_scale_to_lcm", "GridSpec"} <= seen
    assert not uses, uses
